// Package netflow models the §5.1 passive DoT measurement: NetFlow-style
// flow records produced by a sampling backbone router (the paper's ISP used
// 1/3,000 packet sampling and a 15-second idle timeout), and the analysis
// that selects DoT traffic — TCP port 853 toward known resolvers, excluding
// single-SYN flows — with /24 client truncation for ethics.
package netflow

import (
	"cmp"
	"net/netip"
	"slices"
	"sort"
	"time"
)

// TCP flag bits, as unioned into NetFlow records.
const (
	FlagFIN uint8 = 1 << 0
	FlagSYN uint8 = 1 << 1
	FlagRST uint8 = 1 << 2
	FlagPSH uint8 = 1 << 3
	FlagACK uint8 = 1 << 4
)

// IP protocol numbers.
const (
	ProtoTCP uint8 = 6
	ProtoUDP uint8 = 17
)

// Packet is one observed packet at the router.
type Packet struct {
	Time    time.Time
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Bytes   int
	Flags   uint8
}

// Record is one exported flow record.
type Record struct {
	First   time.Time
	Last    time.Time
	Src     netip.Addr
	Dst     netip.Addr
	SrcPort uint16
	DstPort uint16
	Proto   uint8
	Packets uint64
	Bytes   uint64
	// Flags is the union of TCP flags over all sampled packets of the
	// flow (footnote 5: a single SYN flag indicates an incomplete
	// handshake and cannot contain DoT queries).
	Flags uint8
}

// flowKey identifies a flow: same 5-tuple.
type flowKey struct {
	src, dst         netip.Addr
	srcPort, dstPort uint16
	proto            uint8
}

// Router aggregates sampled packets into flow records.
type Router struct {
	// SampleRate is the deterministic 1-in-N packet sampling rate.
	SampleRate int
	// IdleExpiry closes a flow unseen for this long.
	IdleExpiry time.Duration

	counter uint64
	cache   map[flowKey]Record
	// due is no later than the earliest moment a cached flow can expire,
	// the least Last + IdleExpiry over the cache; a packet at or before
	// it expires nothing, so Observe skips the scan of the cache.
	due    time.Time
	export []Record
}

// NewRouter creates a router with the paper's parameters (1/3000, 15 s).
func NewRouter(sampleRate int, idleExpiry time.Duration) *Router {
	if sampleRate < 1 {
		sampleRate = 1
	}
	return &Router{
		SampleRate: sampleRate,
		IdleExpiry: idleExpiry,
		cache:      make(map[flowKey]Record),
	}
}

// Observe feeds one packet through the sampler. Packets need not arrive in
// time order. Every packet, sampled or not, first exports each cached flow
// whose Last is more than IdleExpiry before the packet's time, so a flow
// whose Last is later than the packet is never idle to it. A sampled packet
// then joins its flow, or starts one, and becomes the flow's Last even when
// it is earlier than the Last before it.
func (r *Router) Observe(p Packet) {
	if len(r.cache) > 0 && p.Time.After(r.due) {
		r.expire(p.Time)
	}
	r.counter++
	if r.counter%uint64(r.SampleRate) != 0 {
		return
	}
	key := flowKey{p.Src, p.Dst, p.SrcPort, p.DstPort, p.Proto}
	rec, ok := r.cache[key]
	if !ok {
		rec = Record{
			First: p.Time, Last: p.Time,
			Src: p.Src, Dst: p.Dst,
			SrcPort: p.SrcPort, DstPort: p.DstPort,
			Proto: p.Proto,
		}
	}
	rec.Last = p.Time
	rec.Packets++
	rec.Bytes += uint64(p.Bytes)
	rec.Flags |= p.Flags
	if expiry := p.Time.Add(r.IdleExpiry); len(r.cache) == 0 || expiry.Before(r.due) {
		r.due = expiry
	}
	r.cache[key] = rec
}

// expire exports the flows idle at now and sets due to the earliest
// expiry among the flows that stay.
func (r *Router) expire(now time.Time) {
	first := true
	for key, rec := range r.cache {
		expiry := rec.Last.Add(r.IdleExpiry)
		if now.After(expiry) {
			if len(r.export) == cap(r.export) {
				// Double: append grows a large slice by only about 1.25x.
				r.export = slices.Grow(r.export, len(r.export)+1)
			}
			r.export = append(r.export, rec)
			delete(r.cache, key)
		} else if first || expiry.Before(r.due) {
			r.due, first = expiry, false
		}
	}
}

// Flush exports all remaining flows and returns every record collected so
// far, ordered by first-seen time and then by 5-tuple. A flow is exported
// in map order, but no two records share a first-seen time and a 5-tuple
// (a flow seen again after expiry starts later, unless a packet stepping
// back in time lands exactly on an expired flow's First), so the order is
// total and one packet stream always flushes the same slice.
func (r *Router) Flush() []Record {
	r.export = slices.Grow(r.export, len(r.cache))
	for key, rec := range r.cache {
		r.export = append(r.export, rec)
		delete(r.cache, key)
	}
	sort.Slice(r.export, func(i, j int) bool { return compareRecords(&r.export[i], &r.export[j]) < 0 })
	out := r.export
	r.export = nil
	return out
}

// compareRecords orders records by first-seen time, then source,
// destination, ports and protocol. It takes pointers, so a comparison
// copies no record.
func compareRecords(a, b *Record) int {
	if c := a.First.Compare(b.First); c != 0 {
		return c
	}
	if c := a.Src.Compare(b.Src); c != 0 {
		return c
	}
	if c := a.Dst.Compare(b.Dst); c != 0 {
		return c
	}
	if c := cmp.Compare(a.SrcPort, b.SrcPort); c != 0 {
		return c
	}
	if c := cmp.Compare(a.DstPort, b.DstPort); c != 0 {
		return c
	}
	return cmp.Compare(a.Proto, b.Proto)
}

// Truncate24 zeroes the host byte of an IPv4 address — the paper keeps only
// the /24 of each client address before analysis, for ethics.
func Truncate24(ip netip.Addr) netip.Addr {
	if !ip.Is4() {
		return ip
	}
	b := ip.As4()
	b[3] = 0
	return netip.AddrFrom4(b)
}

// Analyzer selects and aggregates DoT traffic from flow records.
type Analyzer struct {
	// Resolvers maps known DoT resolver addresses to provider names (the
	// list produced by the §3 scans).
	Resolvers map[netip.Addr]string
}

// DoTFlow is one selected DoT flow with its client truncated to /24.
type DoTFlow struct {
	Month    string // "2018-07"
	Day      string // "2018-07-15"
	Client24 netip.Addr
	Provider string
	Packets  uint64
	Bytes    uint64
}

// SelectDoT applies §5.1's filter: TCP port 853 toward a known DoT
// resolver, excluding flows whose only TCP flag is a single SYN. The
// result is sized once, for every TCP record to port 853. The month and
// day labels are formatted once per run of records that share a first-seen
// date, which for records in first-seen order is once per day.
func (a *Analyzer) SelectDoT(records []Record) []DoTFlow {
	candidates := 0
	for i := range records {
		if records[i].Proto == ProtoTCP && records[i].DstPort == 853 {
			candidates++
		}
	}
	out := make([]DoTFlow, 0, candidates)
	var (
		year, day            int
		month                time.Month
		monthLabel, dayLabel string
	)
	for _, rec := range records {
		if rec.Proto != ProtoTCP || rec.DstPort != 853 {
			continue
		}
		provider, known := a.Resolvers[rec.Dst]
		if !known {
			continue
		}
		if rec.Flags == FlagSYN {
			continue
		}
		if y, m, d := rec.First.Date(); dayLabel == "" || y != year || m != month || d != day {
			year, month, day = y, m, d
			monthLabel = rec.First.Format("2006-01")
			dayLabel = rec.First.Format("2006-01-02")
		}
		out = append(out, DoTFlow{
			Month:    monthLabel,
			Day:      dayLabel,
			Client24: Truncate24(rec.Src),
			Provider: provider,
			Packets:  rec.Packets,
			Bytes:    rec.Bytes,
		})
	}
	return out
}

// MonthlyCounts returns flows per month per provider (Fig. 11).
func MonthlyCounts(flows []DoTFlow) map[string]map[string]int {
	out := map[string]map[string]int{}
	for _, f := range flows {
		m, ok := out[f.Provider]
		if !ok {
			m = map[string]int{}
			out[f.Provider] = m
		}
		m[f.Month]++
	}
	return out
}

// NetblockStat summarizes one client /24's DoT activity (Fig. 12).
type NetblockStat struct {
	Client24 netip.Addr
	Flows    int
	// ActiveDays is the count of distinct days with observed traffic
	// (the "active time" color of Fig. 12).
	ActiveDays int
}

// NetblockStats aggregates flows per client /24 toward one provider,
// sorted by flow count descending.
func NetblockStats(flows []DoTFlow, provider string) []NetblockStat {
	type acc struct {
		flows int
		days  map[string]bool
	}
	byClient := map[netip.Addr]*acc{}
	for _, f := range flows {
		if f.Provider != provider {
			continue
		}
		a, ok := byClient[f.Client24]
		if !ok {
			a = &acc{days: map[string]bool{}}
			byClient[f.Client24] = a
		}
		a.flows++
		a.days[f.Day] = true
	}
	out := make([]NetblockStat, 0, len(byClient))
	for ip, a := range byClient {
		out = append(out, NetblockStat{Client24: ip, Flows: a.flows, ActiveDays: len(a.days)})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Flows != out[j].Flows {
			return out[i].Flows > out[j].Flows
		}
		return out[i].Client24.Less(out[j].Client24)
	})
	return out
}

// TopShare returns the fraction of flows contributed by the top n
// netblocks (§5.2: top five /24s account for 44% of Cloudflare DoT flows).
func TopShare(stats []NetblockStat, n int) float64 {
	total, top := 0, 0
	for i, s := range stats {
		total += s.Flows
		if i < n {
			top += s.Flows
		}
	}
	if total == 0 {
		return 0
	}
	return float64(top) / float64(total)
}

// TemporaryFraction returns the fraction of netblocks active for fewer
// than the given number of days (§5.2: 96% active less than one week).
func TemporaryFraction(stats []NetblockStat, days int) float64 {
	if len(stats) == 0 {
		return 0
	}
	short := 0
	for _, s := range stats {
		if s.ActiveDays < days {
			short++
		}
	}
	return float64(short) / float64(len(stats))
}
