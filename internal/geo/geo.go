// Package geo models the geography of the simulated Internet: which country
// and autonomous system an IPv4 address belongs to, and the round-trip time
// between any two locations.
//
// The paper's client-side study aggregates results per country (Fig. 9) and
// per AS (Tables 5 and 6); this package provides the lookup tables those
// aggregations need, and the latency model that internal/netsim uses to
// convert protocol round trips into simulated milliseconds.
package geo

import (
	"math"
	"net/netip"
	"slices"
	"sync"
)

// Location is the registration data for an address.
type Location struct {
	Country string // ISO 3166-1 alpha-2
	ASN     int
	ASName  string
}

// Country describes one country in the synthetic world. Coordinates are in
// an abstract plane; inter-country RTT grows with Euclidean distance.
type Country struct {
	Code string
	Name string
	// X, Y place the country on the latency plane (arbitrary units where
	// one unit of distance adds DistanceRTTPerUnit of round-trip time).
	X, Y float64
	// LastMileMS is the typical access-network latency added to every
	// round trip originating in this country. Residential networks in the
	// paper's high-overhead countries (e.g. Indonesia) have larger values.
	LastMileMS float64
}

// DistanceRTTPerUnit converts latency-plane distance into milliseconds.
const DistanceRTTPerUnit = 0.9

// Countries used by the default world. Codes cover every country the paper's
// tables name, plus enough others to populate 166-country vantage sets.
var builtinCountries = []Country{
	{"US", "United States", 10, 40, 8},
	{"CA", "Canada", 12, 48, 9},
	{"BR", "Brazil", 28, 0, 18},
	{"MX", "Mexico", 8, 30, 14},
	{"AR", "Argentina", 27, -12, 20},
	{"CO", "Colombia", 22, 12, 18},
	{"GB", "United Kingdom", 48, 52, 7},
	{"IE", "Ireland", 46, 53, 7},
	{"DE", "Germany", 53, 50, 6},
	{"FR", "France", 50, 47, 7},
	{"NL", "Netherlands", 52, 52, 6},
	{"IT", "Italy", 54, 43, 9},
	{"ES", "Spain", 47, 41, 9},
	{"SE", "Sweden", 55, 60, 7},
	{"PL", "Poland", 57, 51, 8},
	{"RU", "Russia", 70, 55, 12},
	{"UA", "Ukraine", 62, 49, 11},
	{"TR", "Turkey", 60, 40, 12},
	{"CN", "China", 95, 35, 12},
	{"JP", "Japan", 105, 37, 8},
	{"KR", "South Korea", 102, 36, 7},
	{"HK", "Hong Kong", 96, 25, 8},
	{"TW", "Taiwan", 99, 26, 8},
	{"SG", "Singapore", 92, 8, 8},
	{"IN", "India", 80, 25, 16},
	{"ID", "Indonesia", 94, 2, 24},
	{"VN", "Vietnam", 92, 20, 20},
	{"TH", "Thailand", 90, 18, 16},
	{"MY", "Malaysia", 91, 10, 16},
	{"PH", "Philippines", 100, 15, 20},
	{"LA", "Laos", 91, 21, 22},
	{"AU", "Australia", 105, -20, 10},
	{"NZ", "New Zealand", 115, -28, 11},
	{"ZA", "South Africa", 55, -15, 18},
	{"NG", "Nigeria", 48, 10, 22},
	{"EG", "Egypt", 58, 32, 16},
	{"KE", "Kenya", 60, 2, 20},
	{"SA", "Saudi Arabia", 64, 30, 13},
	{"AE", "United Arab Emirates", 68, 28, 11},
	{"IL", "Israel", 59, 36, 10},
	{"PK", "Pakistan", 76, 30, 18},
	{"BD", "Bangladesh", 84, 26, 20},
	{"IR", "Iran", 68, 34, 16},
	{"KZ", "Kazakhstan", 74, 46, 14},
	{"CL", "Chile", 24, -15, 16},
	{"PE", "Peru", 21, 2, 18},
	{"VE", "Venezuela", 23, 14, 20},
	{"PT", "Portugal", 45, 40, 9},
	{"CH", "Switzerland", 52, 47, 6},
	{"AT", "Austria", 55, 48, 7},
	{"BE", "Belgium", 51, 51, 6},
	{"DK", "Denmark", 53, 56, 6},
	{"NO", "Norway", 52, 61, 7},
	{"FI", "Finland", 59, 61, 7},
	{"CZ", "Czechia", 55, 50, 7},
	{"RO", "Romania", 60, 45, 9},
	{"GR", "Greece", 57, 40, 10},
	{"HU", "Hungary", 57, 47, 8},
	{"BG", "Bulgaria", 59, 43, 9},
}

// Countries returns a copy of the built-in country table.
func Countries() []Country {
	return append([]Country(nil), builtinCountries...)
}

// RTTModel computes simulated round-trip times between countries.
type RTTModel struct {
	countries map[string]Country
}

// NewRTTModel builds a model from the built-in country table plus extras.
func NewRTTModel(extra ...Country) *RTTModel {
	m := &RTTModel{countries: make(map[string]Country, len(builtinCountries)+len(extra))}
	for _, c := range builtinCountries {
		m.countries[c.Code] = c
	}
	for _, c := range extra {
		m.countries[c.Code] = c
	}
	return m
}

// RTTMillis returns the modeled round-trip time in milliseconds between two
// countries: last-mile latency of both ends plus distance on the plane.
// Unknown countries get a generous default.
func (m *RTTModel) RTTMillis(from, to string) float64 {
	a, okA := m.countries[from]
	b, okB := m.countries[to]
	if !okA || !okB {
		return 150
	}
	dx, dy := a.X-b.X, a.Y-b.Y
	dist := math.Sqrt(dx*dx + dy*dy)
	rtt := a.LastMileMS + b.LastMileMS + dist*DistanceRTTPerUnit
	if from == to {
		// Domestic paths still traverse the access networks.
		rtt = a.LastMileMS * 2
	}
	return rtt
}

// Table maps address prefixes (IPv4 or IPv6) to values of type V and walks
// the stored prefixes covering an address, longest first. It keeps one map
// per distinct stored prefix length, so a walk probes one map per length
// rather than scanning every prefix. IPv4 and IPv6 prefixes of the same
// length share a map; their keys never collide because an Addr carries its
// family. A Table does no locking: callers that write it while others walk
// it synchronise themselves. The zero Table is empty and ready to use.
type Table[V any] struct {
	levels []level[V] // one per distinct prefix length, longest first
}

// level holds the values stored under prefixes of one length, keyed by the
// masked prefix address.
type level[V any] struct {
	bits int
	vals map[netip.Addr]V
}

// Set stores v under prefix, replacing any value stored under the same
// masked prefix. Invalid prefixes cover no address, so they are not stored.
func (t *Table[V]) Set(prefix netip.Prefix, v V) {
	prefix = prefix.Masked()
	if !prefix.IsValid() {
		return
	}
	bits := prefix.Bits()
	i, found := slices.BinarySearchFunc(t.levels, bits, func(l level[V], bits int) int { return bits - l.bits })
	if !found {
		t.levels = slices.Insert(t.levels, i, level[V]{bits: bits, vals: make(map[netip.Addr]V)})
	}
	t.levels[i].vals[prefix.Addr()] = v
}

// Get returns the value stored under exactly prefix, once masked.
func (t *Table[V]) Get(prefix netip.Prefix) (v V, ok bool) {
	prefix = prefix.Masked()
	for _, l := range t.levels {
		if l.bits == prefix.Bits() {
			v, ok = l.vals[prefix.Addr()]
			break
		}
	}
	return v, ok
}

// Walk calls yield with the value of every stored prefix covering ip,
// longest prefix first, until yield returns false. As with
// netip.Prefix.Contains, an address with a zone is covered by no prefix,
// and an IPv4-mapped IPv6 address only by IPv6 prefixes.
func (t *Table[V]) Walk(ip netip.Addr, yield func(V) bool) {
	if !ip.IsValid() || ip.Zone() != "" {
		return
	}
	for _, l := range t.levels {
		if l.bits > ip.BitLen() {
			continue
		}
		// Cannot fail: bits is within the address's length.
		p, _ := ip.Prefix(l.bits)
		if v, ok := l.vals[p.Addr()]; ok && !yield(v) {
			return
		}
	}
}

// Registry maps address prefixes (IPv4 or IPv6) to Locations and answers
// longest-prefix-match lookups. The answer for an address is the
// registration with the longest prefix covering it; registration order
// only matters for identical prefixes, where the first registration wins.
//
// Every dial asks the registry where both ends are (netsim's path RTT and
// censor policies, the fault injector's region gate), so Lookup is a hot
// path: it walks a Table, which probes one map per distinct registered
// prefix length, longest first, instead of scanning every prefix.
type Registry struct {
	mu       sync.RWMutex
	locs     Table[Location]
	fallback func(netip.Addr) (Location, bool)
}

// Register associates every address in prefix with loc. A longer prefix
// overrides a shorter one whatever the registration order; registering an
// identical prefix again is a no-op, so the first registration wins. Invalid
// prefixes never match, so they are not stored.
func (r *Registry) Register(prefix netip.Prefix, loc Location) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.locs.Get(prefix); !dup {
		r.locs.Set(prefix, loc)
	}
}

// Lookup returns the most specific registration covering ip, or the
// fallback's answer when none does. As with netip.Prefix.Contains, an
// address with a zone matches no prefix, and an IPv4-mapped IPv6 address
// matches only IPv6 prefixes.
//
//doelint:hotpath
func (r *Registry) Lookup(ip netip.Addr) (loc Location, ok bool) {
	r.mu.RLock()
	r.locs.Walk(ip, func(l Location) bool {
		loc, ok = l, true
		return false
	})
	fb := r.fallback
	r.mu.RUnlock()
	if !ok && fb != nil {
		return fb(ip)
	}
	return loc, ok
}

// SetFallback installs fn, consulted when no registered prefix covers an
// address. Generator-fed vantage populations use this to answer geography
// for millions of per-node /32s as a pure function of the address —
// constant memory instead of one prefix registration per node. Registered
// prefixes always win; install the fallback at world-build time, before
// lookups start.
func (r *Registry) SetFallback(fn func(netip.Addr) (Location, bool)) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.fallback = fn
}

// Country is a convenience wrapper around Lookup returning only the country
// code, with "ZZ" (unknown) for unregistered space.
func (r *Registry) Country(ip netip.Addr) string {
	if loc, ok := r.Lookup(ip); ok {
		return loc.Country
	}
	return "ZZ"
}
