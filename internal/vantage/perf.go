package vantage

import (
	"context"
	"fmt"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"dnsencryption.info/doe/internal/analysis"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
)

// Mode names how a timing pass uses its sessions. The labels are the mode
// values of the vantage_query_latency_sketch family.
type Mode string

// Timing modes: queries one at a time on one reused session, in batches of
// MuxInFlight on one multiplexed session, or each on a fresh connection.
const (
	ModeReused Mode = "reused"
	ModeMux    Mode = "mux"
	ModeFresh  Mode = "fresh"
)

// Leg keys a timing pass: one transport in one mode.
type Leg struct {
	Proto resolver.Proto
	Mode  Mode
}

// perfLegs are the §4.3 reused-connection passes in run order: every
// transport serially, then the encrypted ones multiplexed. Clear-text DNS
// has no multiplexed pass; its serial median is every overhead's baseline.
var perfLegs = [...]Leg{
	{resolver.ProtoTCP, ModeReused}, {resolver.ProtoDoT, ModeReused},
	{resolver.ProtoDoH, ModeReused}, {resolver.ProtoDoQ, ModeReused},
	{resolver.ProtoDoT, ModeMux}, {resolver.ProtoDoH, ModeMux}, {resolver.ProtoDoQ, ModeMux},
}

// Medians holds one vantage's per-query latency medians in milliseconds,
// keyed by leg. A leg the vantage did not measure is absent.
type Medians map[Leg]float64

// OverheadMS is leg's median minus the clear-text DNS median it is compared
// against — the fresh-connection one for ModeFresh, the reused-connection
// one otherwise — and whether leg was measured.
func (m Medians) OverheadMS(leg Leg) (float64, bool) {
	base := Leg{resolver.ProtoTCP, ModeReused}
	if leg.Mode == ModeFresh {
		base.Mode = ModeFresh
	}
	v, ok := m[leg]
	return v - m[base], ok
}

// PerfSample is one vantage point's relative-performance measurement with
// reused connections (§4.3): per-leg medians of T_R over N queries.
type PerfSample struct {
	NodeID  string
	Country string
	// MuxInFlight is the per-session concurrency of the multiplexed pass
	// (0 when the platform ran serial sessions only).
	MuxInFlight int
	// Medians holds the serial legs' per-query latency and, for ModeMux
	// legs, the amortized per-query latency with MuxInFlight queries in
	// flight per session: the session's Elapsed delta around each batch
	// divided by the batch size.
	Medians Medians
}

// MeasurePerformanceContext runs the reused-connection test from one node:
// for every leg the target offers, N queries on a single session, reduced
// to the leg's median. The comparison of T_R differences is valid because
// the client→proxy leg adds the same latency to every protocol (§4.1).
// Each leg's timing pass gets a perf:<proto>[-mux] span (retry attempts
// nested under it) and its successful pass's latencies feed the
// vantage_query_latency_sketch{mode} family. The multiplexed passes run only
// when MuxInFlight > 1 — the Fig. 9 "multiplexed" columns.
func (p *Platform) MeasurePerformanceContext(ctx context.Context, node proxy.ExitNode, tgt Target, n int) (PerfSample, error) {
	sample := PerfSample{NodeID: node.ID, Country: node.Country, Medians: Medians{}}
	if p.MuxInFlight > 1 {
		sample.MuxInFlight = p.MuxInFlight
	}
	for _, leg := range perfLegs {
		offered := endpoints[leg.Proto](tgt).Addr.IsValid()
		if !offered || leg.Mode == ModeMux && sample.MuxInFlight == 0 {
			continue
		}
		lat, err := p.retryLatencies(ctx, leg, func(ctx context.Context) ([]float64, error) {
			return p.timeLeg(ctx, node, tgt, leg, n)
		})
		if err != nil {
			return sample, err
		}
		sample.Medians[leg] = analysis.Median(lat)
	}
	return sample, nil
}

// retryLatencies re-runs one leg's whole timing pass (fresh tunnel, fresh
// session) while it fails and the platform retry budget allows: a
// connection killed mid-pass would otherwise discard the node. The
// successful pass's latencies are reported unpolluted by earlier attempts
// and observed into the leg's latency sketch.
func (p *Platform) retryLatencies(ctx context.Context, leg Leg, measure func(ctx context.Context) ([]float64, error)) ([]float64, error) {
	span := "perf:" + Label(leg.Proto)
	if leg.Mode != ModeReused {
		span += "-" + string(leg.Mode)
	}
	ctx, sp := obs.Start(ctx, span)
	budget := p.attempts()
	var lat []float64
	var err error
	for attempt := 1; attempt <= budget; attempt++ {
		actx := ctx
		if attempt > 1 && sp != nil {
			actx, _ = obs.Start(ctx, "retry:"+strconv.Itoa(attempt))
		}
		lat, err = measure(actx)
		if err == nil {
			sp.SetInt("attempts", int64(attempt))
			sp.SetInt("queries", int64(len(lat)))
			sk := p.inst.queryLatency(obs.Metrics(ctx), leg)
			for _, l := range lat {
				sk.Observe(time.Duration(l * float64(time.Millisecond)))
			}
			return lat, nil
		}
	}
	sp.Fail(err)
	return nil, err
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// timeQueries issues n uniquely-named A lookups on one session and returns
// the per-query latencies in milliseconds — the session's Elapsed delta
// around each Exchange, the one clock every transport shares. This is the
// point of the unified API for §4.3: the timing harness is literally the
// same code for every transport.
func (p *Platform) timeQueries(ctx context.Context, sess resolver.Session, tag string, n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		q := dnswire.NewQuery(0, p.UniqueName(tag), dnswire.TypeA)
		start := sess.Elapsed()
		if _, err := sess.Exchange(ctx, q); err != nil {
			return nil, err
		}
		d := sess.Elapsed() - start
		obs.Charge(ctx, d)
		lat = append(lat, ms(d))
	}
	return lat, nil
}

// timeLeg opens one session for leg through node and times n queries on
// it: one at a time for ModeReused, in batches for ModeMux on a session
// dialed with MuxInFlight queries in flight.
func (p *Platform) timeLeg(ctx context.Context, node proxy.ExitNode, tgt Target, leg Leg, n int) ([]float64, error) {
	tag := node.ID + "-perf-" + Label(leg.Proto)
	inflight := 0
	if leg.Mode == ModeMux {
		tag += "-mux"
		inflight = p.MuxInFlight
	}
	sess, err := p.open(ctx, node, tgt, leg.Proto, inflight)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	if leg.Mode == ModeMux {
		return p.timeBatchQueries(ctx, sess, tag, n)
	}
	return p.timeQueries(ctx, sess, tag, n)
}

// timeBatchQueries issues n uniquely-named lookups on sess in batches of up
// to p.MuxInFlight concurrent in-flight queries and returns per-query
// AMORTIZED latencies in milliseconds: each batch's Elapsed delta divided by
// its size. A batch shares one request segment (one HTTP/2 burst, one QUIC
// flight) and one coalesced response, so the whole batch costs about one
// round trip — the amortization is what the multiplexed column of Fig. 9
// reports.
func (p *Platform) timeBatchQueries(ctx context.Context, sess resolver.Session, tag string, n int) ([]float64, error) {
	lat := make([]float64, 0, n)
	names := make([]string, 0, p.MuxInFlight)
	for done := 0; done < n; {
		b := p.MuxInFlight
		if n-done < b {
			b = n - done
		}
		names = names[:0]
		for i := 0; i < b; i++ {
			names = append(names, p.UniqueName(tag))
		}
		start := sess.Elapsed()
		if _, err := sess.Batch(ctx, names, dnswire.TypeA, nil); err != nil {
			return nil, err
		}
		d := sess.Elapsed() - start
		obs.Charge(ctx, d)
		per := ms(d) / float64(b)
		for i := 0; i < b; i++ {
			lat = append(lat, per)
		}
		done += b
	}
	return lat, nil
}

// CountryPerf aggregates per-client overheads per country (Fig. 9).
type CountryPerf struct {
	Country string
	Clients int
	// AvgMS and MedianMS summarize, per leg, the clients' overheads in
	// milliseconds relative to serial clear-text DNS (see GlobalOverhead);
	// zero for a leg no client in the country measured.
	AvgMS, MedianMS map[Leg]float64
}

// AggregateByCountry computes Fig. 9's per-country series.
func AggregateByCountry(samples []PerfSample) []CountryPerf {
	byCountry := map[string][]PerfSample{}
	for _, s := range samples {
		byCountry[s.Country] = append(byCountry[s.Country], s)
	}
	var out []CountryPerf
	for cc, ss := range byCountry {
		cp := CountryPerf{Country: cc, Clients: len(ss), AvgMS: map[Leg]float64{}, MedianMS: map[Leg]float64{}}
		for _, leg := range perfLegs[1:] {
			cp.AvgMS[leg], cp.MedianMS[leg] = GlobalOverhead(ss, leg)
		}
		out = append(out, cp)
	}
	sortCountryPerf(out)
	return out
}

func sortCountryPerf(s []CountryPerf) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && (s[j].Clients > s[j-1].Clients ||
			(s[j].Clients == s[j-1].Clients && s[j].Country < s[j-1].Country)); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// GlobalOverhead computes the paper's headline average and median over the
// per-client overheads of one leg ("5ms/9ms for DoT, 8ms/6ms for DoH"). A
// sample counts only where it measured the leg, and a ModeMux leg only
// where the sample ran the multiplexed pass (MuxInFlight > 0).
func GlobalOverhead(samples []PerfSample, leg Leg) (avg, med float64) {
	var oh []float64
	for _, s := range samples {
		if leg.Mode == ModeMux && s.MuxInFlight == 0 {
			continue
		}
		if d, ok := s.Medians.OverheadMS(leg); ok {
			oh = append(oh, d)
		}
	}
	return analysis.Mean(oh), analysis.Median(oh)
}

// NoReuseSample is one controlled vantage's fresh-connection comparison
// (Table 7): ModeFresh medians over n queries, each on a brand-new
// connection. The "fresh connection" condition is softer for DoQ: the
// resolver's shared session cache means the first dial pays the 1-RTT
// handshake and later dials resume 0-RTT — honest QUIC resumption rather
// than a full handshake per query.
type NoReuseSample struct {
	Vantage string
	Medians Medians
}

// MeasureNoReuseContext runs Table 7's controlled-vantage test: n queries
// per transport the target offers, every one on a fresh connection
// (TCP+TLS each time), directly from a controlled address (no proxy hop).
// Extra opts (e.g. WithRetry under fault injection) are applied on top of
// the no-reuse defaults. A query that still fails after its budget is
// skipped rather than sinking the vantage; the per-transport median is
// over the queries that answered, and only a transport with zero answers
// is an error. Each pass gets a noreuse:<proto> span and the answered
// queries feed the vantage_query_latency_sketch{mode=fresh} family; the
// resolver transports underneath contribute their own xchg/dial spans per
// query.
func MeasureNoReuseContext(ctx context.Context, w *netsim.World, label string, from netip.Addr, tgt Target, probeZone string, roots *certs.TrustStore, n int, opts ...resolver.Option) (NoReuseSample, error) {
	sample := NoReuseSample{Vantage: label, Medians: Medians{}}
	// Probe names carry the vantage label so concurrent vantages never
	// share a name: a shared name would let one vantage's query warm the
	// resolver cache for another's, making observed latency depend on
	// which vantage asked first.
	uniq := 0
	name := func(tag string) string {
		uniq++
		return fmt.Sprintf("nr%d-%s-%s.%s", uniq, strings.ToLower(label), tag, probeZone)
	}

	// A Transport dials a fresh session for every Exchange, so each query
	// pays TCP+TLS setup afresh — exactly the no-reuse condition Table 7
	// measures. DoT runs Strict here: the controlled vantages authenticate
	// the public resolvers.
	rc := resolver.New(w, from, roots,
		append([]resolver.Option{resolver.WithProfile(dot.Strict)}, opts...)...)
	// One scratch slice serves every pass: each is reduced to its median
	// before the next begins.
	lat := make([]float64, 0, n)
	for i, endpoint := range endpoints {
		proto, ep := resolver.Proto(i), endpoint(tgt)
		if !ep.Addr.IsValid() {
			continue
		}
		t, tag := rc.Transport(proto, ep), Label(proto)
		sctx, sp := obs.Start(ctx, "noreuse:"+tag)
		sk := obs.Metrics(sctx).Sketch("vantage_query_latency_sketch", "mode", string(ModeFresh), "proto", tag)
		lat = lat[:0]
		var lastErr error
		for i := 0; i < n; i++ {
			q := dnswire.NewQuery(0, name(tag), dnswire.TypeA)
			if _, err := t.Exchange(sctx, q); err != nil {
				lastErr = err
				continue
			}
			sk.Observe(t.LastLatency())
			lat = append(lat, ms(t.LastLatency()))
		}
		sp.SetInt("answered", int64(len(lat)))
		if len(lat) == 0 {
			err := fmt.Errorf("vantage: no-reuse %s/%s: every query failed: %w", label, tag, lastErr)
			sp.Fail(err)
			return sample, err
		}
		sample.Medians[Leg{proto, ModeFresh}] = analysis.Median(lat)
	}
	return sample, nil
}
