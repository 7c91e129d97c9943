package workload

import (
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/proxy"
)

// CountryWeight is one country's share of the synthesized vantage pool.
type CountryWeight struct {
	CC     string
	Weight int
}

// vantageMix is the ProxyRack-style residential mix of the paper's Table 3:
// skewed toward Southeast Asia and South America, the population the
// failure analysis (§4.2) encounters. core's materialized study pool draws
// from the same table, so generated and materialized campaigns sample one
// distribution.
var vantageMix = []CountryWeight{
	{"ID", 10}, {"IN", 8}, {"VN", 6}, {"BR", 9}, {"US", 9},
	{"RU", 6}, {"DE", 4}, {"GB", 3}, {"FR", 3}, {"TH", 4},
	{"MY", 3}, {"PH", 4}, {"MX", 3}, {"AR", 2}, {"CO", 2},
	{"TR", 3}, {"UA", 2}, {"PL", 2}, {"IT", 2}, {"ES", 2},
	{"EG", 2}, {"NG", 2}, {"ZA", 1}, {"KE", 1}, {"SA", 1},
	{"PK", 2}, {"BD", 2}, {"KR", 1}, {"JP", 1}, {"TW", 1},
	{"HK", 1}, {"SG", 1}, {"AU", 1}, {"NL", 1}, {"SE", 1},
	{"CA", 1}, {"CL", 1}, {"PE", 1}, {"VE", 1}, {"LA", 1},
	{"KZ", 1}, {"IL", 1}, {"AE", 1}, {"GR", 1}, {"RO", 1},
}

// VantageMix returns the Table 3 country/weight table. Callers must not
// mutate the returned slice.
func VantageMix() []CountryWeight { return vantageMix }

// VantageCapacity is the number of distinct vantages one model can
// synthesize: a full /8 of per-node /32 addresses (12.x.y.z).
const VantageCapacity = 1 << 24

// vantageBaseOctet is the first octet of the generated address plane,
// disjoint from the study's materialized pools (10.x for global, 11.x for
// censored) so a generated population can share a world with them.
const vantageBaseOctet = 12

// VantageModel synthesizes proxy exit nodes on demand. Node(i) is a pure
// function of (seed, i): no shared iterator state, no accumulation — so a
// million-node population costs nothing until a node is asked for, and the
// node stream is byte-identical however callers chunk or interleave the
// index space across shards. Country mix, AS numbering, AS naming and
// lifetime spread mirror the materialized pool in internal/core.
type VantageModel struct {
	seed  int64
	cum   []int // cumulative weights into ccs, for the weighted pick
	ccs   []string
	total int

	// asNames[c][k] is ResidentialASName(ccs[c], k): every name Location
	// can give. Location builds it on its first call, not NewVantageModel,
	// so a campaign's set-up stays as cheap as the model.
	asNamesOnce sync.Once
	asNames     [][asNameClasses]string
}

// NewVantageModel builds a model over the Table 3 mix.
func NewVantageModel(seed int64) *VantageModel {
	m := &VantageModel{seed: seed}
	for _, w := range vantageMix {
		m.total += w.Weight
		m.cum = append(m.cum, m.total)
		m.ccs = append(m.ccs, w.CC)
	}
	return m
}

// asNameClasses is how many generic AS names a country has: an AS is named
// by its country and its number modulo asNameClasses.
const asNameClasses = 37

// ResidentialASName names a residential vantage's AS from its country and
// number: a generic "<cc> Residential ISP <asn mod 37>", except in the
// four countries that get the paper's Table 5/6 AS names, so reports
// speak its vocabulary. Generated and materialized pools name ASes alike.
func ResidentialASName(cc string, asn int) string {
	switch cc {
	case "BR":
		return "Telefnica Brazil S.A"
	case "ID":
		return "PT Telekomunikasi Selular"
	case "LA":
		return "Sinam LLC"
	case "MY":
		return "Speednet Telecomunicacoes Ldta"
	}
	return fmt.Sprintf("%s Residential ISP %d", cc, asn%asNameClasses)
}

// buildASNames fills m.asNames.
func (m *VantageModel) buildASNames() {
	m.asNames = make([][asNameClasses]string, len(m.ccs))
	for c, cc := range m.ccs {
		for k := range m.asNames[c] {
			m.asNames[c][k] = ResidentialASName(cc, k)
		}
	}
}

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche over the
// index space, so consecutive indices draw statistically independent
// attribute streams without any sequential generator state.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Addr returns node i's /32 exit address without synthesizing the rest of
// the node.
func (m *VantageModel) Addr(i int) netip.Addr {
	return netip.AddrFrom4([4]byte{vantageBaseOctet, byte(i >> 16), byte(i >> 8), byte(i)})
}

// IndexOf inverts Addr: it reports which node index owns addr, or false if
// addr is outside the generated plane. Bounds against a campaign's actual
// population are the caller's business — the model itself spans the full
// plane.
func (m *VantageModel) IndexOf(addr netip.Addr) (int, bool) {
	if !addr.Is4() {
		return 0, false
	}
	a4 := addr.As4()
	if a4[0] != vantageBaseOctet {
		return 0, false
	}
	return int(a4[1])<<16 | int(a4[2])<<8 | int(a4[3]), true
}

// Node synthesizes node i. Panics on indices outside [0, Capacity) —
// population limits are validated at campaign construction, not here.
func (m *VantageModel) Node(i int) proxy.ExitNode {
	loc := m.Location(i)
	return proxy.ExitNode{
		ID:      fmt.Sprintf("v-%08d-%s", i, loc.Country),
		Addr:    m.Addr(i),
		Country: loc.Country,
		ASN:     loc.ASN,
		ASName:  loc.ASName,
		// 2..111 minutes: mostly long-lived residential sessions with a
		// short-lifetime tail that fails the campaign's MinUptime screen,
		// like the churny end of the real pool.
		Lifetime: time.Duration(2+int(m.hash(i, 2)%110)) * time.Minute,
	}
}

// Location synthesizes node i's geography — the cheap subset of Node the
// world's geo fallback needs per dial. After its first call it allocates
// nothing.
func (m *VantageModel) Location(i int) geo.Location {
	if i < 0 || i >= VantageCapacity {
		panic(fmt.Sprintf("workload: vantage index %d outside [0, %d)", i, VantageCapacity))
	}
	c := m.pick(int(m.hash(i, 0) % uint64(m.total)))
	asn := 30000 + int(m.hash(i, 1)%500)
	m.asNamesOnce.Do(m.buildASNames)
	return geo.Location{Country: m.ccs[c], ASN: asn, ASName: m.asNames[c][asn%asNameClasses]}
}

// Filtered reports whether node i sits behind a port-53 filtering
// middlebox — the Finding 2.1 affliction, assigned by hash so membership is
// a pure function of the index. Base rate ≈6%, raised to ≈50% in the
// Southeast-Asian countries the paper's failure analysis dwells on,
// mirroring the materialized pool's affliction pass.
func (m *VantageModel) Filtered(i int) bool {
	p := uint64(6)
	switch m.Location(i).Country {
	case "ID", "IN", "VN":
		p = 50
	}
	return m.hash(i, 3)%100 < p
}

// hash derives attribute stream `stream` for node i.
func (m *VantageModel) hash(i int, stream uint64) uint64 {
	return splitmix64(uint64(m.seed) ^ splitmix64(uint64(i)<<8|stream))
}

// pick maps a uniform draw in [0, total) to a country index via the
// cumulative weight table.
func (m *VantageModel) pick(draw int) int {
	lo, hi := 0, len(m.cum)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if draw < m.cum[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}
