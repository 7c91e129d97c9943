package vantage

import (
	"context"
	"io"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
)

// fixture is a miniature of the study world: one resolver offering all
// four protocols, a proxy network with nodes behind different middleboxes.
type fixture struct {
	world    *netsim.World
	ca       *certs.CA
	platform *Platform
	target   Target
	mitm     *netsim.TLSInterceptor
}

var (
	measureIP  = netip.MustParseAddr("172.16.0.9")
	superIP    = netip.MustParseAddr("172.16.0.1")
	resolverIP = netip.MustParseAddr("9.9.9.9")
	expectedA  = netip.MustParseAddr("203.0.113.77")

	nodeClean    = netip.MustParseAddr("10.10.0.5") // US, unfiltered
	nodeFiltered = netip.MustParseAddr("10.11.0.5") // US, port-53 filtered
	nodeCensored = netip.MustParseAddr("10.12.0.5") // CN, censored
	nodeMITM     = netip.MustParseAddr("10.13.0.5") // BR, TLS-intercepted
	nodeConflict = netip.MustParseAddr("10.14.0.5") // ID, 9.9.9.9 conflict
)

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := netsim.NewWorld(41)
	w.JitterFrac = 0
	reg := func(prefix, cc string, asn int, as string) {
		w.Geo.Register(netip.MustParsePrefix(prefix), geo.Location{Country: cc, ASN: asn, ASName: as})
	}
	reg("172.16.0.0/16", "US", 1, "Lab")
	reg("9.9.9.0/24", "US", 2, "Resolver Co")
	reg("10.10.0.0/16", "US", 100, "Clean ISP")
	reg("10.11.0.0/16", "US", 101, "Filtering ISP")
	reg("10.12.0.0/16", "CN", 102, "Censored ISP")
	reg("10.13.0.0/16", "BR", 103, "Telefnica Brazil S.A")
	reg("10.14.0.0/16", "ID", 104, "PT Telekomunikasi Selular")

	ca, err := certs.NewCA("DoE Root", true)
	if err != nil {
		t.Fatal(err)
	}

	zone := dnsserver.NewZone("probe.example.org")
	zone.WildcardA = expectedA
	// Clear-text DNS over TCP and UDP.
	dnsserver.Serve(w, resolverIP, zone)
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: "dns.resolverco.example",
		IPs:        []netip.Addr{resolverIP},
	})
	if err != nil {
		t.Fatal(err)
	}
	dot.Serve(w, resolverIP, leaf, zone, 0)
	doh.Serve(w, resolverIP, leaf, &doh.Server{Handler: zone})
	doq.Serve(w, resolverIP, leaf, zone, 0)

	// Middleboxes.
	w.AddPolicy(&netsim.PortFilter{Port: 53}, netip.MustParsePrefix("10.11.0.0/16"))
	w.AddPolicy(&netsim.Censor{
		Countries: map[string]bool{"CN": true},
		BlockIPs:  map[netip.Addr]bool{resolverIP: true},
		BlockPorts: map[uint16]bool{
			doh.Port: true,
		},
		Blackhole: true,
	})
	dpiCA, err := certs.NewCA("SonicWall Firewall DPI-SSL", false)
	if err != nil {
		t.Fatal(err)
	}
	mitm := netsim.NewTLSInterceptor(dpiCA, dot.Port, doh.Port)
	w.AddPolicy(mitm, netip.MustParsePrefix("10.13.0.0/16"))
	w.AddPolicy(&netsim.ConflictDevice{
		ConflictIP: resolverIP,
		Kind:       netsim.DeviceRouter,
		OpenPorts:  map[uint16]string{80: "<title>MikroTik RouterOS</title>"},
	}, netip.MustParsePrefix("10.14.0.0/16"))

	network := proxy.NewNetwork(w, "testrack", superIP)
	add := func(id string, addr netip.Addr, cc string, asn int, as string) {
		network.AddNode(proxy.ExitNode{ID: id, Addr: addr, Country: cc, ASN: asn, ASName: as, Lifetime: time.Hour})
	}
	add("clean", nodeClean, "US", 100, "Clean ISP")
	add("filtered", nodeFiltered, "US", 101, "Filtering ISP")
	add("censored", nodeCensored, "CN", 102, "Censored ISP")
	add("mitm", nodeMITM, "BR", 103, "Telefnica Brazil S.A")
	add("conflict", nodeConflict, "ID", 104, "PT Telekomunikasi Selular")

	platform := &Platform{
		Network:   network,
		From:      measureIP,
		Roots:     certs.Pool(ca),
		ProbeZone: "probe.example.org",
		ExpectedA: expectedA,
		MinUptime: time.Minute,
	}
	target := Target{
		Name:    "resolverco",
		DNS:     resolverIP,
		DoT:     resolverIP,
		DoH:     doh.Template{Host: "dns.resolverco.example", Path: doh.DefaultPath},
		DoHAddr: resolverIP,
		DoQ:     resolverIP,
	}
	return &fixture{world: w, ca: ca, platform: platform, target: target, mitm: mitm}
}

func (f *fixture) node(t *testing.T, id string) proxy.ExitNode {
	t.Helper()
	for _, n := range f.platform.Network.Nodes() {
		if n.ID == id {
			return n
		}
	}
	t.Fatalf("node %q missing", id)
	return proxy.ExitNode{}
}

func outcomes(results []Result) map[resolver.Proto]Outcome {
	m := map[resolver.Proto]Outcome{}
	for _, r := range results {
		m[r.Proto] = r.Outcome
	}
	return m
}

// fold folds one node's results into a fresh accumulator in lookup order,
// as CampaignStream folds every node it visits.
func fold(results []Result, track ...FailKey) *CampaignStats {
	s := NewCampaignStats(CampaignOpts{TrackFailed: track})
	for ord, r := range results {
		s.Add(0, ord, r)
	}
	return s
}

func TestCleanNodeAllCorrect(t *testing.T) {
	f := newFixture(t)
	res := f.platform.TestReachability(context.Background(), f.node(t, "clean"), []Target{f.target})
	if len(res) != 4 {
		t.Fatalf("results = %d", len(res))
	}
	for _, r := range res {
		if r.Outcome != Correct {
			t.Errorf("%s: %v (%s)", Label(r.Proto), r.Outcome, r.Err)
		}
		if r.Intercepted {
			t.Errorf("%s wrongly intercepted", Label(r.Proto))
		}
	}
}

func TestPort53FilteredNode(t *testing.T) {
	f := newFixture(t)
	got := outcomes(f.platform.TestReachability(context.Background(), f.node(t, "filtered"), []Target{f.target}))
	if got[resolver.ProtoTCP] != Failed {
		t.Errorf("dns = %v, want failed (port 53 filtered)", got[resolver.ProtoTCP])
	}
	if got[resolver.ProtoDoT] != Correct || got[resolver.ProtoDoH] != Correct {
		t.Errorf("dot/doh = %v/%v, want correct (Finding 2.1: encrypted ports pass)", got[resolver.ProtoDoT], got[resolver.ProtoDoH])
	}
}

func TestCensoredNodeDoHBlocked(t *testing.T) {
	f := newFixture(t)
	got := outcomes(f.platform.TestReachability(context.Background(), f.node(t, "censored"), []Target{f.target}))
	if got[resolver.ProtoDoH] != Failed {
		t.Errorf("doh = %v, want failed (censorship, Finding 2.2)", got[resolver.ProtoDoH])
	}
	if got[resolver.ProtoTCP] != Correct || got[resolver.ProtoDoT] != Correct {
		t.Errorf("dns/dot = %v/%v, want correct (only port 443 blocked)", got[resolver.ProtoTCP], got[resolver.ProtoDoT])
	}
}

func TestMITMNodeInterceptsDoTBreaksDoH(t *testing.T) {
	f := newFixture(t)
	results := f.platform.TestReachability(context.Background(), f.node(t, "mitm"), []Target{f.target})
	got := outcomes(results)
	// Opportunistic DoT proceeds and gets the right answer — but is
	// flagged as intercepted, with the DPI CA visible (Finding 2.3).
	if got[resolver.ProtoDoT] != Correct {
		t.Errorf("dot = %v, want correct", got[resolver.ProtoDoT])
	}
	intercepted := fold(results).Intercepted()
	if len(intercepted) != 1 || intercepted[0].Proto != resolver.ProtoDoT {
		t.Fatalf("intercepted = %+v", intercepted)
	}
	if intercepted[0].IssuerCN != "SonicWall Firewall DPI-SSL" {
		t.Errorf("issuer = %q", intercepted[0].IssuerCN)
	}
	// Strict DoH aborts on the forged certificate.
	if got[resolver.ProtoDoH] != Failed {
		t.Errorf("doh = %v, want failed", got[resolver.ProtoDoH])
	}
}

func TestConflictNodeForensics(t *testing.T) {
	f := newFixture(t)
	node := f.node(t, "conflict")
	results := f.platform.TestReachability(context.Background(), node, []Target{f.target})
	got := outcomes(results)
	if got[resolver.ProtoTCP] != Failed || got[resolver.ProtoDoT] != Failed {
		t.Errorf("dns/dot = %v/%v, want failed (address conflict)", got[resolver.ProtoTCP], got[resolver.ProtoDoT])
	}
	dotKey := FailKey{Resolver: "resolverco", Proto: resolver.ProtoDoT}
	failed := fold(results, dotKey).FailedRefs(dotKey)
	if len(failed) != 1 || failed[0].ID != "conflict" {
		t.Errorf("failed nodes = %v", failed)
	}
	probe := f.platform.ProbePorts(node, resolverIP, Table5Ports)
	if len(probe.Open) != 1 || probe.Open[0] != 80 {
		t.Errorf("open ports = %v, want [80]", probe.Open)
	}
	if !strings.Contains(probe.Page, "MikroTik") {
		t.Errorf("page = %q", probe.Page)
	}
	if IdentifyDevice(probe) != "router" {
		t.Errorf("device = %q", IdentifyDevice(probe))
	}
}

// TestCampaignAndTally drives CampaignStream over the fixture's pool plus
// one node the uptime screen discards, with a retry budget of two.
func TestCampaignAndTally(t *testing.T) {
	dnsKey := FailKey{Resolver: "resolverco", Proto: resolver.ProtoTCP}
	dohKey := FailKey{Resolver: "resolverco", Proto: resolver.ProtoDoH}
	campaign := func(workers int) (*CampaignStats, int) {
		f := newFixture(t)
		f.platform.Network.AddNode(proxy.ExitNode{
			ID: "dying", Addr: netip.MustParseAddr("10.10.0.99"), Country: "US", Lifetime: time.Second,
		})
		f.platform.Retry = resolver.RetryPolicy{Attempts: 2}
		stats, err := f.platform.CampaignStream(context.Background(), []Target{f.target}, workers,
			CampaignOpts{TrackFailed: []FailKey{dnsKey, dohKey}})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return stats, len(f.platform.Network.Nodes())
	}
	stats, population := campaign(4)

	// Node order (by ID): censored, clean, conflict, dying, filtered, mitm.
	if stats.Nodes != 5 || stats.Skipped != 1 || stats.Nodes+stats.Skipped != population {
		t.Errorf("nodes %d + skipped %d, want 5 + 1 = population %d", stats.Nodes, stats.Skipped, population)
	}
	tally := stats.ByResolverProto()["resolverco"]
	// 5 nodes: DNS fails on filtered+conflict; DoT and DoQ fail on
	// conflict; DoH fails on censored+mitm+conflict.
	for proto, want := range map[resolver.Proto]Tally{
		resolver.ProtoTCP: {Correct: 3, Failed: 2},
		resolver.ProtoDoT: {Correct: 4, Failed: 1},
		resolver.ProtoDoH: {Correct: 2, Failed: 3},
		resolver.ProtoDoQ: {Correct: 4, Failed: 1},
	} {
		if tally[proto] != want {
			t.Errorf("%s tally = %+v, want %+v", proto, tally[proto], want)
		}
	}
	c, i, fl := tally[resolver.ProtoDoT].Rates()
	if c+i+fl < 0.999 || c+i+fl > 1.001 {
		t.Errorf("rates don't sum to 1: %v %v %v", c, i, fl)
	}

	// Failing nodes are kept for tracked keys only, in node order.
	refIDs := func(refs []NodeRef) []string {
		var ids []string
		for _, r := range refs {
			ids = append(ids, r.ID)
		}
		return ids
	}
	for k, want := range map[FailKey][]string{
		dnsKey: {"conflict", "filtered"},
		dohKey: {"censored", "conflict", "mitm"},
		{Resolver: "resolverco", Proto: resolver.ProtoDoT}: nil,
	} {
		if got := refIDs(stats.FailedRefs(k)); !slices.Equal(got, want) {
			t.Errorf("FailedRefs(%v) = %v, want %v", k, got, want)
		}
	}

	intercepted := stats.Intercepted()
	if len(intercepted) != 1 || intercepted[0].NodeID != "mitm" || intercepted[0].Proto != resolver.ProtoDoT ||
		intercepted[0].IssuerCN != "SonicWall Firewall DPI-SSL" {
		t.Errorf("intercepted = %+v, want mitm's DoT session re-signed by the DPI CA", intercepted)
	}

	// Every failure here is persistent, so each spends its one retry and
	// still fails: 20 lookups, 7 failed, 27 attempts.
	if want := (resolver.RetryStats{Attempts: 27, Retries: 7, HardFailures: 7}); stats.Retry != want {
		t.Errorf("retry = %+v, want %+v", stats.Retry, want)
	}
	if stats.Lookups != 20 || stats.Dropped != 0 {
		t.Errorf("lookups = %d (%d dropped), want 20 (0)", stats.Lookups, stats.Dropped)
	}

	serial, _ := campaign(1)
	if got, want := serial.Render(), stats.Render(); got != want {
		t.Errorf("Render differs between workers 1 and 4:\n%s\nvs\n%s", got, want)
	}
}

// reused, mux and fresh name the legs the performance tests read.
func reused(p resolver.Proto) Leg { return Leg{p, ModeReused} }
func mux(p resolver.Proto) Leg    { return Leg{p, ModeMux} }
func fresh(p resolver.Proto) Leg  { return Leg{p, ModeFresh} }

func TestPerformanceReusedOverheadSmall(t *testing.T) {
	f := newFixture(t)
	f.platform.MuxInFlight = 4
	sample, err := f.platform.MeasurePerformanceContext(context.Background(), f.node(t, "clean"), f.target, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(sample.Medians) != len(perfLegs) {
		t.Fatalf("medians = %v, want every one of %v", sample.Medians, perfLegs)
	}
	for leg, m := range sample.Medians {
		if m <= 0 {
			t.Errorf("%v median = %vms", leg, m)
		}
	}
	// With connection reuse, encrypted overhead is a few ms (crypto cost),
	// far below one RTT (the US->resolver RTT here is ≥ 16ms).
	for _, p := range []resolver.Proto{resolver.ProtoDoT, resolver.ProtoDoH} {
		if oh, ok := sample.Medians.OverheadMS(reused(p)); !ok || oh < 0 || oh > 15 {
			t.Errorf("%s overhead = %vms (measured %v), want small positive", p, oh, ok)
		}
	}
	// A batch of MuxInFlight queries shares one round trip, so the
	// amortized per-query latency undercuts the serial one.
	for _, p := range []resolver.Proto{resolver.ProtoDoT, resolver.ProtoDoH, resolver.ProtoDoQ} {
		if sample.Medians[mux(p)] >= sample.Medians[reused(p)] {
			t.Errorf("%s mux median %vms not below serial %vms", p, sample.Medians[mux(p)], sample.Medians[reused(p)])
		}
	}
}

func TestNoReuseOverheadLarger(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	sample, err := MeasureNoReuseContext(ctx, f.world, "US", measureIP, f.target, "probe.example.org", certs.Pool(f.ca), 10)
	if err != nil {
		t.Fatal(err)
	}
	reusedSample, err := f.platform.MeasurePerformanceContext(ctx, f.node(t, "clean"), f.target, 10)
	if err != nil {
		t.Fatal(err)
	}
	// Without reuse every query pays TCP+TLS setup: the overhead relative
	// to DNS/TCP must exceed the reused-connection overhead (§4.3).
	for _, p := range []resolver.Proto{resolver.ProtoDoT, resolver.ProtoDoH} {
		noReuse, _ := sample.Medians.OverheadMS(fresh(p))
		withReuse, _ := reusedSample.Medians.OverheadMS(reused(p))
		if noReuse <= withReuse {
			t.Errorf("no-reuse %s overhead %v <= reused %v", p, noReuse, withReuse)
		}
	}
	if _, ok := sample.Medians.OverheadMS(fresh(resolver.ProtoDoQ)); !ok {
		t.Errorf("no-reuse DoQ leg not measured: %v", sample.Medians)
	}
}

// TestAggregateByCountry checks Fig. 9's aggregation against hand-computed
// overheads, including its two inclusion rules: a DoQ leg counts only
// where the sample measured it, and a multiplexed leg only where the
// sample ran the multiplexed pass (MuxInFlight > 0).
func TestAggregateByCountry(t *testing.T) {
	samples := []PerfSample{
		{NodeID: "a", Country: "US", MuxInFlight: 4, Medians: Medians{
			reused(resolver.ProtoTCP): 20, reused(resolver.ProtoDoT): 25, reused(resolver.ProtoDoH): 28, reused(resolver.ProtoDoQ): 18,
			mux(resolver.ProtoDoT): 8, mux(resolver.ProtoDoH): 9, mux(resolver.ProtoDoQ): 6,
		}},
		// No DoQ endpoint, no multiplexed pass — but a stray mux median,
		// which must not count without MuxInFlight.
		{NodeID: "b", Country: "US", Medians: Medians{
			reused(resolver.ProtoTCP): 22, reused(resolver.ProtoDoT): 29, reused(resolver.ProtoDoH): 27, mux(resolver.ProtoDoT): 1,
		}},
		{NodeID: "c", Country: "IN", MuxInFlight: 4, Medians: Medians{
			reused(resolver.ProtoTCP): 120, reused(resolver.ProtoDoT): 90, reused(resolver.ProtoDoH): 80, reused(resolver.ProtoDoQ): 70,
			mux(resolver.ProtoDoT): 30, mux(resolver.ProtoDoH): 31, mux(resolver.ProtoDoQ): 25,
		}},
	}
	agg := AggregateByCountry(samples)
	if len(agg) != 2 || agg[0].Country != "US" || agg[0].Clients != 2 || agg[1].Country != "IN" {
		t.Fatalf("agg = %+v", agg)
	}
	us, in := agg[0], agg[1]
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"US DoT avg", us.AvgMS[reused(resolver.ProtoDoT)], (5 + 7) / 2.0},
		{"US DoH median", us.MedianMS[reused(resolver.ProtoDoH)], (8 + 5) / 2.0},
		// Only a measured DoQ: b has none, so US DoQ is a's alone.
		{"US DoQ avg", us.AvgMS[reused(resolver.ProtoDoQ)], -2},
		// Only a ran the multiplexed pass: b's stray median is ignored.
		{"US DoT mux median", us.MedianMS[mux(resolver.ProtoDoT)], -12},
		{"US DoQ mux median", us.MedianMS[mux(resolver.ProtoDoQ)], -14},
		// India can be *faster* over encrypted transports, as the paper finds.
		{"IN DoT avg", in.AvgMS[reused(resolver.ProtoDoT)], -30},
		{"IN DoH mux median", in.MedianMS[mux(resolver.ProtoDoH)], -89},
	} {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
	for _, c := range []struct {
		leg           Leg
		wantAvg, want float64
	}{
		{reused(resolver.ProtoDoT), (5 + 7 - 30) / 3.0, 5},
		{reused(resolver.ProtoDoQ), (-2 - 50) / 2.0, -26},
		{mux(resolver.ProtoDoH), (-11 - 89) / 2.0, -50},
	} {
		if avg, med := GlobalOverhead(samples, c.leg); avg != c.wantAvg || med != c.want {
			t.Errorf("global %v = %v/%v, want %v/%v", c.leg, avg, med, c.wantAvg, c.want)
		}
	}
}

// silentServer accepts streams on addr's DNS, DoT and DoH ports and never
// answers: every leg to it blocks until its deadline.
func silentServer(f *fixture, addr netip.Addr) {
	for _, port := range []uint16{53, dot.Port, doh.Port} {
		f.world.RegisterStream(addr, port, func(conn *netsim.Conn) {
			defer conn.Close()
			io.Copy(io.Discard, conn)
		})
	}
}

// TestProxiedLegsHonourContextDeadline pins one deadline rule for every
// stream leg: the context's deadline bounds the session, so a resolver that
// accepts and never answers fails each leg promptly rather than at the
// proxy tunnel's 10 s watchdog.
func TestProxiedLegsHonourContextDeadline(t *testing.T) {
	f := newFixture(t)
	silentIP := netip.MustParseAddr("9.9.9.10")
	silentServer(f, silentIP)
	tgt := Target{Name: "silent", DNS: silentIP, DoT: silentIP, DoHAddr: silentIP,
		DoH: doh.Template{Host: "dns.resolverco.example", Path: doh.DefaultPath}}
	node := f.node(t, "clean")
	for _, proto := range []resolver.Proto{resolver.ProtoTCP, resolver.ProtoDoT, resolver.ProtoDoH} {
		ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
		start := time.Now()
		r := f.platform.test(ctx, node, tgt, proto)
		took := time.Since(start)
		cancel()
		if r.Outcome != Failed || took > time.Second {
			t.Errorf("%s: %v after %v (%s), want failed within 1s", proto, r.Outcome, took, r.Err)
		}
	}
}

// dropNth drops the nth datagram of one flow tuple and passes everything
// else: a one-off loss in the middle of a DoQ lookup.
type dropNth struct {
	from, to netip.Addr
	port     uint16
	n        int

	mu   sync.Mutex
	seen int
}

func (d *dropNth) StreamFault(netip.Addr, netip.Addr, uint16) netsim.DialFault {
	return netsim.DialFault{}
}

func (d *dropNth) DatagramFault(from, to netip.Addr, port uint16) netsim.DatagramFault {
	if from != d.from || to != d.to || port != d.port {
		return netsim.DatagramFault{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.seen++
	return netsim.DatagramFault{Drop: d.seen == d.n}
}

// TestRecoveredDoQLookupPaysFullHandshake pins that no DoQ resumption state
// crosses a retry: the lookup whose first query flight is lost recovers on
// a second attempt that runs the full 1-RTT handshake again, not a 0-RTT
// resumption, so its Setup equals a clean lookup's.
func TestRecoveredDoQLookupPaysFullHandshake(t *testing.T) {
	f := newFixture(t)
	node := f.node(t, "clean")
	clean := f.platform.test(context.Background(), node, f.target, resolver.ProtoDoQ)
	if clean.Outcome != Correct || clean.Setup <= 0 {
		t.Fatalf("clean DoQ lookup = %+v", clean)
	}

	f.platform.Retry = resolver.RetryPolicy{Attempts: 2}
	f.world.SetFaults(&dropNth{from: nodeClean, to: resolverIP, port: doq.Port, n: 2})
	var got Result
	for _, r := range f.platform.TestReachability(context.Background(), node, []Target{f.target}) {
		if r.Proto == resolver.ProtoDoQ {
			got = r
		}
	}
	if got.Outcome != Correct || !got.Recovered || got.Attempts != 2 {
		t.Fatalf("DoQ lookup = %+v, want correct after one retry", got)
	}
	if got.Setup != clean.Setup {
		t.Errorf("recovered DoQ setup = %v, want the full handshake's %v (0 would be a 0-RTT resumption)", got.Setup, clean.Setup)
	}
}

func TestUniqueNamesAreUnique(t *testing.T) {
	f := newFixture(t)
	seen := map[string]bool{}
	for i := 0; i < 100; i++ {
		n := f.platform.UniqueName("Node_X")
		if seen[n] {
			t.Fatalf("duplicate name %q", n)
		}
		if strings.ContainsAny(n, "_ABCDEFGHIJKLMNOPQRSTUVWXYZ") || dnswire.CanonicalName(n) != n {
			t.Fatalf("name %q not canonical", n)
		}
		seen[n] = true
	}
}

func TestUsableNodeFiltersExpiring(t *testing.T) {
	f := newFixture(t)
	f.platform.Network.AddNode(proxy.ExitNode{
		ID: "dying", Addr: netip.MustParseAddr("10.10.0.99"), Country: "US", Lifetime: time.Second,
	})
	if f.platform.UsableNode(proxy.ExitNode{ID: "dying"}) {
		t.Error("expiring node considered usable")
	}
	if !f.platform.UsableNode(f.node(t, "clean")) {
		t.Error("healthy node rejected")
	}
}

func TestOutcomeString(t *testing.T) {
	if Correct.String() != "correct" || Incorrect.String() != "incorrect" || Failed.String() != "failed" {
		t.Error("Outcome.String mismatch")
	}
}

func TestPlatformDisruptionDropped(t *testing.T) {
	f := newFixture(t)
	// Exhaust a node's session budget so further dials are platform
	// failures (general-failure reply), not target failures.
	f.platform.Network.PerDialCost = time.Hour
	f.platform.Network.AddNode(proxy.ExitNode{
		ID: "dying2", Addr: netip.MustParseAddr("10.10.0.98"), Country: "US", Lifetime: 90 * time.Minute,
	})
	node := f.node(t, "dying2")
	// First dial consumes the whole budget...
	if c, err := f.platform.Network.Dial(f.platform.From, "dying2", resolverIP, 53); err == nil {
		c.Close()
	}
	// ...so the reachability test hits platform disruption on every leg.
	results := f.platform.TestReachability(context.Background(), node, []Target{f.target})
	dropped := 0
	for _, r := range results {
		if r.Dropped {
			dropped++
		}
	}
	if dropped == 0 {
		t.Fatalf("no dropped results: %+v", results)
	}
	dotKey := FailKey{Resolver: "resolverco", Proto: resolver.ProtoDoT}
	stats := fold(results, dotKey)
	if stats.Lookups != len(results) || stats.Dropped != dropped {
		t.Errorf("stats count %d lookups, %d dropped; want %d, %d", stats.Lookups, stats.Dropped, len(results), dropped)
	}
	// Dropped measurements must not contaminate Table 4.
	for name, byProto := range stats.ByResolverProto() {
		for proto, tl := range byProto {
			if tl.Failed > 0 {
				t.Errorf("%s/%s counts %d platform failures as protocol failures", name, Label(proto), tl.Failed)
			}
		}
	}
	// Nor the retry totals and failure taxonomy.
	if stats.Retry.HardFailures != 0 || len(stats.Errors) != 0 {
		t.Errorf("dropped results counted as hard failures: %+v, errors %v", stats.Retry, stats.Errors)
	}
	// Nor the Table 5 candidate list.
	if failed := stats.FailedRefs(dotKey); len(failed) != 0 {
		t.Errorf("dropped node listed as failed: %v", failed)
	}
}

func TestIdentifyDeviceVariants(t *testing.T) {
	cases := []struct {
		probe PortProbe
		want  string
	}{
		{PortProbe{Page: "<script src=coinhive.min.js>"}, "cryptojacked router"},
		{PortProbe{Page: "<title>RouterOS</title>"}, "router"},
		{PortProbe{Server: "MikroTik"}, "router"},
		{PortProbe{Page: "Powerbox Gvt Modem"}, "modem"},
		{PortProbe{Page: "please login to continue"}, "authentication system"},
		{PortProbe{Page: "hello world"}, "unknown web device"},
		{PortProbe{Open: []uint16{22}}, "unidentified host"},
		{PortProbe{}, "silent (blackhole or internal routing)"},
	}
	for _, c := range cases {
		if got := IdentifyDevice(c.probe); got != c.want {
			t.Errorf("IdentifyDevice(%+v) = %q, want %q", c.probe, got, c.want)
		}
	}
}
