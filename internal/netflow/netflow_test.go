package netflow

import (
	"math/rand"
	"net/netip"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

var (
	clientA  = netip.MustParseAddr("40.1.2.3")
	clientB  = netip.MustParseAddr("40.1.2.9") // same /24 as A
	clientC  = netip.MustParseAddr("40.9.9.1")
	cfDoT    = netip.MustParseAddr("1.1.1.1")
	quad9DoT = netip.MustParseAddr("9.9.9.9")
	otherSrv = netip.MustParseAddr("8.8.8.8")
)

var t0 = time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)

func pkt(at time.Time, src, dst netip.Addr, dstPort uint16, flags uint8) Packet {
	return Packet{
		Time: at, Src: src, Dst: dst,
		SrcPort: 40000, DstPort: dstPort,
		Proto: ProtoTCP, Bytes: 120, Flags: flags,
	}
}

func TestRouterAggregatesFlows(t *testing.T) {
	r := NewRouter(1, 15*time.Second)
	r.Observe(pkt(t0, clientA, cfDoT, 853, FlagSYN))
	r.Observe(pkt(t0.Add(time.Second), clientA, cfDoT, 853, FlagACK|FlagPSH))
	r.Observe(pkt(t0.Add(2*time.Second), clientA, cfDoT, 853, FlagFIN|FlagACK))
	recs := r.Flush()
	if len(recs) != 1 {
		t.Fatalf("records = %d, want 1 aggregated flow", len(recs))
	}
	rec := recs[0]
	if rec.Packets != 3 || rec.Flags != FlagSYN|FlagACK|FlagPSH|FlagFIN {
		t.Errorf("record = %+v", rec)
	}
	if !rec.First.Equal(t0) || !rec.Last.Equal(t0.Add(2*time.Second)) {
		t.Errorf("timestamps = %v..%v", rec.First, rec.Last)
	}
}

func TestRouterIdleExpirySplitsFlows(t *testing.T) {
	r := NewRouter(1, 15*time.Second)
	r.Observe(pkt(t0, clientA, cfDoT, 853, FlagSYN))
	// Second packet after 20s idle: new flow record.
	r.Observe(pkt(t0.Add(20*time.Second), clientA, cfDoT, 853, FlagACK))
	recs := r.Flush()
	if len(recs) != 2 {
		t.Fatalf("records = %d, want 2 (idle expiry)", len(recs))
	}
}

func TestRouterSampling(t *testing.T) {
	r := NewRouter(10, time.Minute)
	for i := 0; i < 1000; i++ {
		// Distinct flows so each sampled packet creates one record.
		p := pkt(t0.Add(time.Duration(i)*time.Millisecond), clientA, cfDoT, 853, FlagACK)
		p.SrcPort = uint16(10000 + i)
		r.Observe(p)
	}
	recs := r.Flush()
	if len(recs) != 100 {
		t.Errorf("sampled records = %d, want 100 (1/10 of 1000)", len(recs))
	}
}

func TestTruncate24(t *testing.T) {
	if got := Truncate24(clientA); got != netip.MustParseAddr("40.1.2.0") {
		t.Errorf("Truncate24 = %v", got)
	}
}

func selectFixture() []Record {
	return []Record{
		// Valid DoT flow to Cloudflare.
		{First: t0, Src: clientA, Dst: cfDoT, DstPort: 853, Proto: ProtoTCP, Packets: 5, Bytes: 900, Flags: FlagSYN | FlagACK | FlagPSH},
		// Same /24, next day.
		{First: t0.AddDate(0, 0, 1), Src: clientB, Dst: cfDoT, DstPort: 853, Proto: ProtoTCP, Packets: 4, Bytes: 700, Flags: FlagACK},
		// Single-SYN: excluded (incomplete handshake).
		{First: t0, Src: clientC, Dst: cfDoT, DstPort: 853, Proto: ProtoTCP, Packets: 1, Bytes: 44, Flags: FlagSYN},
		// Port 853 but unknown destination: excluded.
		{First: t0, Src: clientC, Dst: otherSrv, DstPort: 853, Proto: ProtoTCP, Packets: 3, Bytes: 500, Flags: FlagACK},
		// Known resolver, quad9.
		{First: t0, Src: clientC, Dst: quad9DoT, DstPort: 853, Proto: ProtoTCP, Packets: 3, Bytes: 500, Flags: FlagACK},
		// UDP on 853: excluded.
		{First: t0, Src: clientA, Dst: cfDoT, DstPort: 853, Proto: ProtoUDP, Packets: 2, Bytes: 200},
		// Port 443: excluded from DoT analysis.
		{First: t0, Src: clientA, Dst: cfDoT, DstPort: 443, Proto: ProtoTCP, Packets: 9, Bytes: 5000, Flags: FlagACK},
	}
}

func newAnalyzer() *Analyzer {
	return &Analyzer{Resolvers: map[netip.Addr]string{
		cfDoT:    "cloudflare",
		quad9DoT: "quad9",
	}}
}

func TestSelectDoT(t *testing.T) {
	flows := newAnalyzer().SelectDoT(selectFixture())
	if len(flows) != 3 {
		t.Fatalf("selected = %d, want 3: %+v", len(flows), flows)
	}
	if flows[0].Client24 != netip.MustParseAddr("40.1.2.0") {
		t.Errorf("client not truncated: %v", flows[0].Client24)
	}
	byProvider := map[string]int{}
	for _, f := range flows {
		byProvider[f.Provider]++
	}
	if byProvider["cloudflare"] != 2 || byProvider["quad9"] != 1 {
		t.Errorf("providers = %v", byProvider)
	}
}

func TestMonthlyCounts(t *testing.T) {
	flows := newAnalyzer().SelectDoT(selectFixture())
	counts := MonthlyCounts(flows)
	if counts["cloudflare"]["2018-07"] != 2 {
		t.Errorf("counts = %v", counts)
	}
}

func TestNetblockStatsAndShares(t *testing.T) {
	flows := []DoTFlow{
		{Provider: "cloudflare", Client24: netip.MustParseAddr("40.1.2.0"), Day: "2018-07-01"},
		{Provider: "cloudflare", Client24: netip.MustParseAddr("40.1.2.0"), Day: "2018-07-02"},
		{Provider: "cloudflare", Client24: netip.MustParseAddr("40.1.2.0"), Day: "2018-07-15"},
		{Provider: "cloudflare", Client24: netip.MustParseAddr("40.2.0.0"), Day: "2018-07-01"},
		{Provider: "cloudflare", Client24: netip.MustParseAddr("40.3.0.0"), Day: "2018-07-03"},
		{Provider: "quad9", Client24: netip.MustParseAddr("40.4.0.0"), Day: "2018-07-03"},
	}
	stats := NetblockStats(flows, "cloudflare")
	if len(stats) != 3 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Flows != 3 || stats[0].ActiveDays != 3 {
		t.Errorf("top netblock = %+v", stats[0])
	}
	if got := TopShare(stats, 1); got != 0.6 {
		t.Errorf("TopShare(1) = %v, want 0.6", got)
	}
	if got := TemporaryFraction(stats, 7); got != 1.0 {
		t.Errorf("TemporaryFraction = %v (all active <7 days here)", got)
	}
	if TopShare(nil, 5) != 0 || TemporaryFraction(nil, 7) != 0 {
		t.Error("empty-input edge cases")
	}
}

func TestQuickSamplingProportion(t *testing.T) {
	// Statistical property: deterministic 1-in-N sampling keeps exactly
	// floor(P/N) of P packets (single flow, so records aggregate).
	f := func(rateSel, countSel uint8) bool {
		rate := 1 + int(rateSel%50)
		count := 100 + int(countSel)*10
		r := NewRouter(rate, time.Hour)
		for i := 0; i < count; i++ {
			r.Observe(pkt(t0.Add(time.Duration(i)*time.Millisecond), clientA, cfDoT, 853, FlagACK))
		}
		recs := r.Flush()
		var sampled uint64
		for _, rec := range recs {
			sampled += rec.Packets
		}
		return sampled == uint64(count/rate)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestFlagUnionNeverLosesBits(t *testing.T) {
	f := func(flagSets []uint8) bool {
		r := NewRouter(1, time.Hour)
		var want uint8
		for i, fl := range flagSets {
			fl &= FlagFIN | FlagSYN | FlagRST | FlagPSH | FlagACK
			want |= fl
			r.Observe(pkt(t0.Add(time.Duration(i)*time.Millisecond), clientA, cfDoT, 853, fl))
		}
		recs := r.Flush()
		if len(flagSets) == 0 {
			return len(recs) == 0
		}
		return len(recs) == 1 && recs[0].Flags == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// refRouter is Router without its expiry shortcut: every packet ranges the
// whole flow cache, as Router did before it kept a due time. It is the
// reference TestExpiryShortcutIsExact compares against.
type refRouter struct {
	sampleRate int
	idleExpiry time.Duration
	counter    uint64
	cache      map[flowKey]*Record
	export     []Record
}

func (r *refRouter) observe(p Packet) {
	for key, rec := range r.cache {
		if p.Time.Sub(rec.Last) > r.idleExpiry {
			r.export = append(r.export, *rec)
			delete(r.cache, key)
		}
	}
	r.counter++
	if r.counter%uint64(r.sampleRate) != 0 {
		return
	}
	key := flowKey{p.Src, p.Dst, p.SrcPort, p.DstPort, p.Proto}
	rec, ok := r.cache[key]
	if !ok {
		rec = &Record{First: p.Time, Src: p.Src, Dst: p.Dst, SrcPort: p.SrcPort, DstPort: p.DstPort, Proto: p.Proto}
		r.cache[key] = rec
	}
	rec.Last = p.Time
	rec.Packets++
	rec.Bytes += uint64(p.Bytes)
	rec.Flags |= p.Flags
}

func (r *refRouter) flush() []Record {
	for _, rec := range r.cache {
		r.export = append(r.export, *rec)
	}
	sort.Slice(r.export, func(i, j int) bool { return compareRecords(&r.export[i], &r.export[j]) < 0 })
	return r.export
}

// TestExpiryShortcutIsExact feeds one seeded packet stream through Router
// and through refRouter, which ranges its cache on every packet; Flush must
// return the same records. Interleaved flows pause for gaps just under, at
// and just over the idle expiry, and for much longer. Packets step back in
// time a little inside the stream, and then a whole later batch is stamped
// months earlier, as the traffic stage feeds its September scan after
// January's flows; a packet stamped before a cached flow's last one
// expires nothing, and a sampled one moves that flow's Last back.
func TestExpiryShortcutIsExact(t *testing.T) {
	const idle = 15 * time.Second
	short := []time.Duration{0, time.Millisecond, 200 * time.Millisecond, time.Second, 3 * time.Second}
	long := []time.Duration{idle - time.Millisecond, idle, idle + time.Millisecond, 2 * idle, time.Hour}
	for _, rate := range []int{1, 3} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var packets []Packet
			burst := func(start time.Time, n int) {
				at := start
				for i := 0; i < n; i++ {
					gaps := short
					if rng.Intn(4) == 0 {
						gaps = long
					}
					at = at.Add(gaps[rng.Intn(len(gaps))])
					stamp := at
					if rng.Intn(8) == 0 {
						stamp = at.Add(-time.Duration(rng.Intn(int(2 * idle)))) // steps back
					}
					p := pkt(stamp, clientA, cfDoT, 853, uint8(1)<<rng.Intn(5))
					p.SrcPort = uint16(40000 + rng.Intn(6)) // six interleaved flows
					packets = append(packets, p)
				}
			}
			burst(t0.AddDate(0, 6, 0), 400)
			burst(t0, 200) // months earlier than every cached flow
			burst(t0.AddDate(0, 6, 1), 100)

			r := NewRouter(rate, idle)
			ref := &refRouter{sampleRate: rate, idleExpiry: idle, cache: map[flowKey]*Record{}}
			for _, p := range packets {
				r.Observe(p)
				ref.observe(p)
			}
			got, want := r.Flush(), ref.flush()
			if !slices.Equal(got, want) {
				t.Fatalf("rate %d seed %d: Router flushed %d records, the reference %d; first difference at %d",
					rate, seed, len(got), len(want), firstDiff(got, want))
			}
			if len(want) <= 6 {
				t.Fatalf("rate %d seed %d: %d records; the stream never expired a flow", rate, seed, len(want))
			}
		}
	}
}

func firstDiff(a, b []Record) int {
	for i := range min(len(a), len(b)) {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}
