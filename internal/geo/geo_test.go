package geo

import (
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// countryByCode returns the built-in country table entry for code.
func countryByCode(code string) (Country, bool) {
	for _, c := range builtinCountries {
		if c.Code == code {
			return c, true
		}
	}
	return Country{}, false
}

// countryCodes returns every built-in country code in table order.
func countryCodes() []string {
	codes := make([]string, len(builtinCountries))
	for i, c := range builtinCountries {
		codes[i] = c.Code
	}
	return codes
}

func TestCountryByCode(t *testing.T) {
	c, ok := countryByCode("CN")
	if !ok || c.Name != "China" {
		t.Fatalf("countryByCode(CN) = %+v, %v", c, ok)
	}
	if _, ok := countryByCode("XX"); ok {
		t.Error("the country table holds unknown code XX")
	}
}

func TestPaperCountriesPresent(t *testing.T) {
	// Every country named in the paper's tables must exist in the model.
	for _, cc := range []string{
		"IE", "CN", "US", "DE", "FR", "JP", "NL", "GB", "BR", "RU", // Table 2
		"ID", "VN", "IN", // footnote 4, Fig 9
		"LA", "MY", "IT", "KR", // Tables 5-6
		"AU", "HK", // Table 7
	} {
		if _, ok := countryByCode(cc); !ok {
			t.Errorf("country %s missing from model", cc)
		}
	}
}

func TestRTTSymmetric(t *testing.T) {
	m := NewRTTModel()
	f := func(i, j uint8) bool {
		codes := countryCodes()
		a := codes[int(i)%len(codes)]
		b := codes[int(j)%len(codes)]
		return m.RTTMillis(a, b) == m.RTTMillis(b, a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRTTPositiveAndDomesticSmaller(t *testing.T) {
	m := NewRTTModel()
	for _, cc := range countryCodes() {
		dom := m.RTTMillis(cc, cc)
		if dom <= 0 {
			t.Errorf("domestic RTT for %s = %v", cc, dom)
		}
		far := m.RTTMillis(cc, "AU")
		if cc != "AU" && far <= dom {
			t.Errorf("%s->AU RTT %v not greater than domestic %v", cc, far, dom)
		}
	}
}

func TestRTTUnknownCountryDefault(t *testing.T) {
	m := NewRTTModel()
	if got := m.RTTMillis("XX", "US"); got != 150 {
		t.Errorf("unknown-country RTT = %v, want 150", got)
	}
}

func TestRTTModelExtraCountry(t *testing.T) {
	m := NewRTTModel(Country{Code: "QQ", Name: "Test", X: 10, Y: 40, LastMileMS: 5})
	if got := m.RTTMillis("QQ", "QQ"); got != 10 {
		t.Errorf("extra-country domestic RTT = %v, want 10", got)
	}
}

func TestRegistryLongestPrefixWins(t *testing.T) {
	var r Registry
	r.Register(netip.MustParsePrefix("10.0.0.0/8"), Location{Country: "US", ASN: 1, ASName: "Big"})
	r.Register(netip.MustParsePrefix("10.1.0.0/16"), Location{Country: "CN", ASN: 2, ASName: "Small"})

	if got := r.Country(netip.MustParseAddr("10.2.3.4")); got != "US" {
		t.Errorf("10.2.3.4 country = %s, want US", got)
	}
	if got := r.Country(netip.MustParseAddr("10.1.3.4")); got != "CN" {
		t.Errorf("10.1.3.4 country = %s, want CN", got)
	}
	loc, ok := r.Lookup(netip.MustParseAddr("10.1.9.9"))
	if !ok || loc.ASN != 2 {
		t.Errorf("Lookup = %+v, %v", loc, ok)
	}
}

func TestRegistryUnknown(t *testing.T) {
	var r Registry
	if got := r.Country(netip.MustParseAddr("192.0.2.1")); got != "ZZ" {
		t.Errorf("unregistered country = %s, want ZZ", got)
	}
	if _, ok := r.Lookup(netip.MustParseAddr("192.0.2.1")); ok {
		t.Error("Lookup succeeded on empty registry")
	}
}

func TestRegistryRegisterAfterLookup(t *testing.T) {
	var r Registry
	r.Register(netip.MustParsePrefix("10.0.0.0/8"), Location{Country: "US"})
	if got := r.Country(netip.MustParseAddr("10.9.0.1")); got != "US" {
		t.Errorf("before the /16 registration: got %s, want US", got)
	}
	r.Register(netip.MustParsePrefix("10.9.0.0/16"), Location{Country: "JP"})
	if got := r.Country(netip.MustParseAddr("10.9.0.1")); got != "JP" {
		t.Errorf("registration after a lookup: got %s, want JP", got)
	}
}

// linearRegistry is the reference Lookup: every registration kept in a
// slice, stable-sorted longest prefix first before each lookup, and scanned
// in order with netip.Prefix.Contains. Registry must give the same answer
// for every address.
type linearRegistry struct {
	entries  []linearEntry
	fallback func(netip.Addr) (Location, bool)
}

type linearEntry struct {
	prefix netip.Prefix
	loc    Location
}

func (r *linearRegistry) register(prefix netip.Prefix, loc Location) {
	r.entries = append(r.entries, linearEntry{prefix.Masked(), loc})
}

func (r *linearRegistry) lookup(ip netip.Addr) (Location, bool) {
	sort.SliceStable(r.entries, func(i, j int) bool {
		return r.entries[i].prefix.Bits() > r.entries[j].prefix.Bits()
	})
	for _, e := range r.entries {
		if e.prefix.Contains(ip) {
			return e.loc, true
		}
	}
	if r.fallback != nil {
		return r.fallback(ip)
	}
	return Location{}, false
}

// covering is the reference Walk: every distinct registered prefix that
// contains ip, longest first.
func (r *linearRegistry) covering(ip netip.Addr) []netip.Prefix {
	var out []netip.Prefix
	for _, e := range r.entries {
		if e.prefix.Contains(ip) && !slices.Contains(out, e.prefix) {
			out = append(out, e.prefix)
		}
	}
	slices.SortStableFunc(out, func(a, b netip.Prefix) int { return b.Bits() - a.Bits() })
	return out
}

// randomPrefix draws from a small address space so that registrations
// nest and repeat: IPv4 and IPv6 prefixes of lengths 0 through full,
// IPv4-mapped IPv6 prefixes, the zero Prefix and an out-of-range length.
func randomPrefix(rng *rand.Rand) netip.Prefix {
	switch rng.Intn(10) {
	case 0:
		return netip.Prefix{}
	case 1:
		return netip.PrefixFrom(randomAddr4(rng), 33)
	case 2, 3:
		bits := []int{0, 32, 48, 64, 112, 128}[rng.Intn(6)]
		return netip.PrefixFrom(randomAddr6(rng), bits)
	case 4:
		bits := []int{96, 104, 120, 128}[rng.Intn(4)]
		return netip.PrefixFrom(netip.AddrFrom16(randomAddr4(rng).As16()), bits)
	default:
		bits := []int{0, 8, 12, 14, 16, 24, 24, 31, 32, 32}[rng.Intn(10)]
		return netip.PrefixFrom(randomAddr4(rng), bits)
	}
}

func randomAddr4(rng *rand.Rand) netip.Addr {
	octet := func() byte { return []byte{0, 1, 2, 255}[rng.Intn(4)] }
	return netip.AddrFrom4([4]byte{10, octet(), octet(), octet()})
}

func randomAddr6(rng *rand.Rand) netip.Addr {
	var b [16]byte
	b[0], b[1], b[2], b[3] = 0x20, 0x01, 0x0d, 0xb8
	b[6] = byte(rng.Intn(3))
	b[15] = byte(rng.Intn(3))
	return netip.AddrFrom16(b)
}

// randomQuery draws a query address, including forms netip.Prefix.Contains
// treats specially: IPv4-mapped, zoned and the zero Addr.
func randomQuery(rng *rand.Rand) netip.Addr {
	switch rng.Intn(8) {
	case 0:
		return netip.AddrFrom16(randomAddr4(rng).As16())
	case 1:
		return randomAddr6(rng).WithZone("eth0")
	case 2:
		return randomAddr6(rng)
	case 3:
		return []netip.Addr{{}, netip.IPv4Unspecified(), netip.MustParseAddr("192.0.2.1")}[rng.Intn(3)]
	default:
		return randomAddr4(rng)
	}
}

func TestLookupMatchesLinearScan(t *testing.T) {
	fallback := func(ip netip.Addr) (Location, bool) {
		return Location{Country: "FB", ASN: ip.BitLen()}, ip.Is4()
	}
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var got Registry
		var walked Table[netip.Prefix] // each registered prefix stored as its own value
		var want linearRegistry
		check := func(ip netip.Addr) {
			gl, gok := got.Lookup(ip)
			wl, wok := want.lookup(ip)
			if gl != wl || gok != wok {
				t.Fatalf("seed %d: Lookup(%v) = %+v, %v; linear scan gives %+v, %v", seed, ip, gl, gok, wl, wok)
			}
			var gw []netip.Prefix
			walked.Walk(ip, func(p netip.Prefix) bool {
				gw = append(gw, p)
				return true
			})
			if ww := want.covering(ip); !slices.Equal(gw, ww) {
				t.Fatalf("seed %d: Walk(%v) yields %v; linear scan gives %v", seed, ip, gw, ww)
			}
		}
		for step := 0; step < 120; step++ {
			switch n := rng.Intn(10); {
			case n < 4:
				p := randomPrefix(rng)
				loc := Location{Country: fmt.Sprintf("R%d", step), ASN: step, ASName: p.String()}
				got.Register(p, loc)
				walked.Set(p, p.Masked())
				want.register(p, loc)
			case n == 4:
				fb := fallback
				if rng.Intn(2) == 0 {
					fb = nil
				}
				got.SetFallback(fb)
				want.fallback = fb
			default:
				check(randomQuery(rng))
			}
		}
		for i := 0; i < 64; i++ {
			check(randomQuery(rng))
		}
	}
}

// TestRegistryEdgeCases pins the answers netip.Prefix.Contains and the old
// stable sort gave for unusual registrations and query addresses.
func TestRegistryEdgeCases(t *testing.T) {
	var r Registry
	r.Register(netip.Prefix{}, Location{Country: "XX"})
	r.Register(netip.MustParsePrefix("0.0.0.0/0"), Location{Country: "V4"})
	r.Register(netip.MustParsePrefix("2001:db8::/32"), Location{Country: "V6"})
	r.Register(netip.MustParsePrefix("10.1.0.0/16"), Location{Country: "US"})
	r.Register(netip.MustParsePrefix("10.1.2.3/16"), Location{Country: "CN"}) // identical once masked
	for _, tc := range []struct {
		ip   netip.Addr
		want string
	}{
		{netip.MustParseAddr("10.1.9.9"), "US"}, // first registration wins
		{netip.MustParseAddr("10.2.3.4"), "V4"},
		{netip.MustParseAddr("::ffff:10.1.2.3"), "ZZ"}, // IPv4-mapped: an IPv6 address
		{netip.MustParseAddr("2001:db8::1"), "V6"},
		{netip.MustParseAddr("2001:db8::1%eth0"), "ZZ"}, // zoned: matches no prefix
		{netip.MustParseAddr("2001:db9::1"), "ZZ"},
		{netip.Addr{}, "ZZ"},
	} {
		if got := r.Country(tc.ip); got != tc.want {
			t.Errorf("Country(%v) = %s, want %s", tc.ip, got, tc.want)
		}
	}
}

func TestLookupAllocationFree(t *testing.T) {
	var r Registry
	r.Register(netip.MustParsePrefix("10.0.0.0/8"), Location{Country: "US", ASN: 1, ASName: "Big"})
	r.Register(netip.MustParsePrefix("10.1.2.0/24"), Location{Country: "CN", ASN: 2, ASName: "Small"})
	r.Register(netip.MustParsePrefix("10.1.2.3/32"), Location{Country: "JP", ASN: 3, ASName: "Host"})
	var fb Registry
	fb.Register(netip.MustParsePrefix("10.0.0.0/8"), Location{Country: "US"})
	fb.SetFallback(func(netip.Addr) (Location, bool) { return Location{Country: "DE"}, true })
	for _, tc := range []struct {
		name string
		r    *Registry
		ip   netip.Addr
		want bool
	}{
		{"hit", &r, netip.MustParseAddr("10.1.2.9"), true},
		{"miss", &r, netip.MustParseAddr("100.64.0.1"), false},
		{"fallback", &fb, netip.MustParseAddr("100.64.0.1"), true},
	} {
		var ok bool
		allocs := testing.AllocsPerRun(1000, func() { _, ok = tc.r.Lookup(tc.ip) })
		if ok != tc.want {
			t.Errorf("%s: Lookup(%v) ok = %v, want %v", tc.name, tc.ip, ok, tc.want)
		}
		if allocs != 0 {
			t.Errorf("%s: Lookup allocates %v times per call, want 0", tc.name, allocs)
		}
	}
}

// TestRegisterConcurrentWithLookup registers nested prefixes while readers
// look up addresses inside them: every answer must be the covering /8's or
// the new /16's, and once a reader has seen the new answer it never sees
// the old one again.
func TestRegisterConcurrentWithLookup(t *testing.T) {
	var r Registry
	old := Location{Country: "US", ASN: 1}
	r.Register(netip.MustParsePrefix("10.0.0.0/8"), old)
	const n = 64
	addr := func(i int) netip.Addr { return netip.AddrFrom4([4]byte{10, byte(i), 0, 1}) }
	fresh := func(i int) Location { return Location{Country: "JP", ASN: 100 + i} }

	var done atomic.Bool
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var seen [n]bool
			for last := false; !last; {
				last = done.Load()
				for i := 0; i < n; i++ {
					loc, ok := r.Lookup(addr(i))
					switch {
					case ok && loc == fresh(i):
						seen[i] = true
					case ok && loc == old && !seen[i]:
					default:
						t.Errorf("Lookup(%v) = %+v, %v; want %+v or, before it, %+v", addr(i), loc, ok, fresh(i), old)
						return
					}
				}
			}
			for i, s := range seen {
				if !s {
					t.Errorf("Lookup(%v) never saw the registration that finished before the last sweep", addr(i))
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		r.Register(netip.PrefixFrom(addr(i), 16), fresh(i))
	}
	done.Store(true)
	wg.Wait()
}

// BenchmarkGeoLookup queries a registry shaped like the default world's —
// 910 /24s (vantage and resolver networks), 643 /32s (scan-space
// resolvers) and three short infrastructure prefixes — with the scan's mix:
// three scan-space addresses, almost all unregistered, per vantage hit.
func BenchmarkGeoLookup(b *testing.B) {
	var r Registry
	for _, p := range []string{"104.16.0.0/12", "198.18.0.0/16", "172.16.0.0/14"} {
		r.Register(netip.MustParsePrefix(p), Location{Country: "US"})
	}
	scan := func(i uint32) netip.Addr {
		return netip.AddrFrom4([4]byte{100, 64 | byte(i>>16&1), byte(i >> 8), byte(i)})
	}
	node := func(i uint32) netip.Addr { return netip.AddrFrom4([4]byte{12, byte(i >> 8), byte(i), 1}) }
	for i := uint32(0); i < 910; i++ {
		r.Register(netip.PrefixFrom(node(i), 24), Location{Country: "DE", ASN: int(i)})
	}
	for i := uint32(0); i < 643; i++ {
		r.Register(netip.PrefixFrom(scan(i*197), 32), Location{Country: "IE", ASN: int(i)})
	}
	addrs := make([]netip.Addr, 256)
	for i := range addrs {
		if i%4 == 3 {
			addrs[i] = node(uint32(i) % 910)
		} else {
			addrs[i] = scan(uint32(i) * 2654435761 % (1 << 17))
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := r.Lookup(addrs[i%len(addrs)]); !ok && i%4 == 3 {
			b.Fatalf("vantage %v has no location", addrs[i%len(addrs)])
		}
	}
}
