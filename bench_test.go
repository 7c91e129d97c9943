package doe_test

import (
	"context"
	"crypto/tls"
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netflow"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/scandetect"
	"dnsencryption.info/doe/internal/scanner"
	"dnsencryption.info/doe/internal/vantage"
	"dnsencryption.info/doe/internal/workload"
)

// The benchmark study is built once (world construction dominates);
// individual benchmarks re-run pipeline stages, not the cached experiment
// wrappers.
var (
	benchOnce  sync.Once
	benchStudy *core.Study
)

func study(b testing.TB) *core.Study {
	b.Helper()
	benchOnce.Do(func() {
		s, err := core.NewStudy(core.TestConfig())
		if err != nil {
			b.Fatalf("NewStudy: %v", err)
		}
		benchStudy = s
	})
	return benchStudy
}

// cleanNode returns a dedicated benchmark vantage point: no in-path
// middleboxes and a session budget large enough for any iteration count
// (study nodes deliberately churn, which would starve long bench runs).
func cleanNode(b testing.TB, s *core.Study) proxy.ExitNode {
	b.Helper()
	const id = "bench-node"
	for _, n := range s.Global.Nodes() {
		if n.ID == id {
			return n
		}
	}
	addr := netip.MustParseAddr("10.200.0.5")
	s.World.Geo.Register(netip.MustParsePrefix("10.200.0.0/24"),
		geo.Location{Country: "US", ASN: 64999, ASName: "Bench ISP"})
	node := proxy.ExitNode{
		ID: id, Addr: addr, Country: "US", ASN: 64999, ASName: "Bench ISP",
		Lifetime: 10000 * time.Hour,
	}
	s.Global.AddNode(node)
	return node
}

// --- One benchmark per table and figure -------------------------------

func BenchmarkTable1ProtocolComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table1().Render() == "" {
			b.Fatal("empty table")
		}
	}
}

func BenchmarkFig1Timeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Fig1().Render() == "" {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkTable2DoTCountries measures one full Internet-wide scan round
// (sweep + DoT verification + grouping), the unit of Tables 2 and Fig 3.
func BenchmarkTable2DoTCountries(b *testing.B) {
	s := study(b)
	s.SetScanRound(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Scanner.ScanContext(context.Background(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CountryCounts()) == 0 {
			b.Fatal("no countries")
		}
	}
}

// benchmarkParallelScan ablates the parallel engine's worker count on the
// Table 2 scan workload. The merged report is bit-for-bit identical at any
// width (TestReportByteIdenticalAcrossWorkerCounts pins that), so the only
// thing the knob moves is wall time.
func benchmarkParallelScan(b *testing.B, workers int) {
	s := study(b)
	s.SetScanRound(0)
	prev := s.Scanner.Workers
	s.Scanner.Workers = workers
	b.Cleanup(func() { s.Scanner.Workers = prev })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Scanner.ScanContext(context.Background(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		if len(res.CountryCounts()) == 0 {
			b.Fatal("no countries")
		}
	}
}

func BenchmarkParallelScanN1(b *testing.B)  { benchmarkParallelScan(b, 1) }
func BenchmarkParallelScanN4(b *testing.B)  { benchmarkParallelScan(b, 4) }
func BenchmarkParallelScanN16(b *testing.B) { benchmarkParallelScan(b, 16) }

func BenchmarkFig3ResolversPerScan(b *testing.B) {
	s := study(b)
	s.SetScanRound(s.ScanRounds - 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := s.Scanner.ScanContext(context.Background(), "bench")
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(res.Resolvers)), "resolvers")
	}
}

func BenchmarkFig4Providers(b *testing.B) {
	s := study(b)
	s.SetScanRound(s.ScanRounds - 1)
	res, err := s.Scanner.ScanContext(context.Background(), "bench")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		counts := res.ProviderCounts()
		invalid := res.InvalidCertProviders()
		if len(counts) == 0 || len(invalid) == 0 {
			b.Fatal("grouping failed")
		}
	}
}

func BenchmarkTable3Vantage(b *testing.B) {
	s := study(b)
	for i := 0; i < b.N; i++ {
		if len(s.Global.Nodes()) == 0 || len(s.Censored.Nodes()) == 0 {
			b.Fatal("no nodes")
		}
	}
}

// BenchmarkTable4Reachability measures one vantage point's full Fig. 7
// workflow across all four resolvers (the unit of Table 4).
func BenchmarkTable4Reachability(b *testing.B) {
	s := study(b)
	node := cleanNode(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		results := s.GlobalPlatform.TestReachability(context.Background(), node, s.Targets)
		if len(results) == 0 {
			b.Fatal("no results")
		}
	}
}

func BenchmarkTable5PortProbe(b *testing.B) {
	s := study(b)
	node := cleanNode(b, s)
	cf := netip.MustParseAddr("1.1.1.1")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.GlobalPlatform.ProbePorts(node, cf, vantage.Table5Ports)
	}
}

func BenchmarkTable6Interception(b *testing.B) {
	s := study(b)
	data := s.Reachability()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data.Global.Intercepted()
	}
}

// BenchmarkTable7NoReuse measures the fresh-connection comparison from one
// controlled vantage with a reduced query count.
func BenchmarkTable7NoReuse(b *testing.B) {
	s := study(b)
	v := core.ControlledVantages[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample, err := vantage.MeasureNoReuseContext(context.Background(), s.World, v.Label, v.Addr, s.Targets[0], core.ProbeZone, s.Roots, 3)
		if err != nil {
			b.Fatal(err)
		}
		oh, _ := sample.Medians.OverheadMS(vantage.Leg{Proto: resolver.ProtoDoT, Mode: vantage.ModeFresh})
		b.ReportMetric(oh, "dot-overhead-ms")
	}
}

// BenchmarkFig9CountryPerf measures one vantage point's reused-connection
// performance test (the unit of Figs. 9 and 10).
func BenchmarkFig9CountryPerf(b *testing.B) {
	s := study(b)
	node := cleanNode(b, s)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sample, err := s.GlobalPlatform.MeasurePerformanceContext(context.Background(), node, s.Targets[0], 5)
		if err != nil {
			b.Fatal(err)
		}
		oh, _ := sample.Medians.OverheadMS(vantage.Leg{Proto: resolver.ProtoDoT, Mode: vantage.ModeReused})
		b.ReportMetric(oh, "dot-overhead-ms")
	}
}

func BenchmarkFig10Scatter(b *testing.B) {
	s := study(b)
	samples := s.PerfSamples()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vantage.AggregateByCountry(samples)
	}
}

// BenchmarkFig11MonthlyFlows measures the full §5 NetFlow pipeline:
// workload synthesis, sampling router, scan screening, DoT selection and
// monthly aggregation (also the unit of Fig. 12).
func BenchmarkFig11MonthlyFlows(b *testing.B) {
	cf := netip.MustParseAddr("1.1.1.1")
	for i := 0; i < b.N; i++ {
		router := netflow.NewRouter(3, 15*time.Second)
		gen := workload.NewDoTGenerator(int64(i))
		gen.Providers = []workload.ProviderTraffic{{
			Provider: "cloudflare", Resolver: cf,
			MonthlyFlows: map[workload.Month]int{"2018-07": 500, "2018-12": 780},
		}}
		gen.Generate(router)
		records := router.Flush()
		verdicts := scandetect.NewDetector(853).Classify(records)
		organic := scandetect.FilterOrganic(records, verdicts)
		analyzer := &netflow.Analyzer{Resolvers: map[netip.Addr]string{cf: "cloudflare"}}
		flows := analyzer.SelectDoT(organic)
		if len(netflow.MonthlyCounts(flows)) == 0 {
			b.Fatal("no flows")
		}
	}
}

func BenchmarkFig12Netblocks(b *testing.B) {
	s := study(b)
	data := s.GenerateTraffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stats := netflow.NetblockStats(data.Flows, "cloudflare")
		b.ReportMetric(netflow.TopShare(stats, 5)*100, "top5-share-%")
	}
}

func BenchmarkFig13DoHVolume(b *testing.B) {
	s := study(b)
	data := s.GenerateTraffic()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(data.PDNS.MonthlyVolume("dns.google")) == 0 {
			b.Fatal("no volume")
		}
	}
}

func BenchmarkScanDetect(b *testing.B) {
	s := study(b)
	data := s.GenerateTraffic()
	detector := scandetect.NewDetector(853)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		detector.Classify(data.Records)
	}
}

func BenchmarkTable8Implementations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if core.Table8().Render() == "" {
			b.Fatal("empty table")
		}
	}
}

// --- Ablations (design choices called out in DESIGN.md) ----------------

// Connection reuse is the paper's central performance lever: one virtual
// query on an established DoT session versus a full fresh session.
func BenchmarkAblationConnReuseDoT(b *testing.B) {
	s := study(b)
	client := dot.NewClient(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, dot.Strict)
	conn, err := client.Dial(s.Targets[0].DoT)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		res, err := conn.Query("bench."+core.ProbeZone, dnswire.TypeA)
		if err != nil {
			b.Fatal(err)
		}
		total += res.Latency
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "virtual-ms/query")
}

func BenchmarkAblationConnFreshDoT(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithProfile(dot.Strict))
	tr := c.Transport(resolver.ProtoDoT, resolver.Endpoint{Addr: s.Targets[0].DoT})
	q := dnswire.NewQuery(0, "bench."+core.ProbeZone, dnswire.TypeA)
	ctx := context.Background()
	b.ResetTimer()
	var total time.Duration
	for i := 0; i < b.N; i++ {
		if _, err := tr.Exchange(ctx, q); err != nil {
			b.Fatal(err)
		}
		total += tr.LastLatency()
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "virtual-ms/query")
}

func BenchmarkAblationPaddingOff(b *testing.B) {
	q := dnswire.NewQuery(1, "padding-bench.probe.dnsencryption.info", dnswire.TypeA)
	q.SetEDNS0(4096, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := q.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationPaddingOn(b *testing.B) {
	q := dnswire.NewQuery(1, "padding-bench.probe.dnsencryption.info", dnswire.TypeA)
	q.SetEDNS0(4096, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := q.PadToBlock(128); err != nil {
			b.Fatal(err)
		}
		packed, err := q.Pack()
		if err != nil {
			b.Fatal(err)
		}
		if len(packed)%128 != 0 {
			b.Fatal("not padded")
		}
	}
}

// Scan order: ZMap's permutation versus a linear sweep over the same space
// (pure iteration cost; the fairness property is tested elsewhere).
func BenchmarkAblationScanOrderPermutation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		perm, err := scanner.NewPermutation(1<<16, uint64(i))
		if err != nil {
			b.Fatal(err)
		}
		var sum uint64
		for {
			v, ok := perm.Next()
			if !ok {
				break
			}
			sum += v
		}
		if sum != (1<<16)*((1<<16)-1)/2 {
			b.Fatal("incomplete permutation")
		}
	}
}

func BenchmarkAblationScanOrderLinear(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var sum uint64
		for v := uint64(0); v < 1<<16; v++ {
			sum += v
		}
		if sum != (1<<16)*((1<<16)-1)/2 {
			b.Fatal("bad sum")
		}
	}
}

func benchSampling(b *testing.B, rate int) {
	cf := netip.MustParseAddr("1.1.1.1")
	src := netip.MustParseAddr("40.1.2.3")
	t0 := time.Date(2018, 7, 1, 0, 0, 0, 0, time.UTC)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		router := netflow.NewRouter(rate, 15*time.Second)
		for p := 0; p < 30000; p++ {
			router.Observe(netflow.Packet{
				Time: t0.Add(time.Duration(p) * time.Millisecond),
				Src:  src, Dst: cf,
				SrcPort: uint16(10000 + p%1000), DstPort: 853,
				Proto: netflow.ProtoTCP, Bytes: 120, Flags: netflow.FlagACK,
			})
		}
		b.ReportMetric(float64(len(router.Flush())), "records")
	}
}

func BenchmarkAblationSampling1in3(b *testing.B)    { benchSampling(b, 3) }
func BenchmarkAblationSampling1in3000(b *testing.B) { benchSampling(b, 3000) }

func benchDoHMethod(b *testing.B, method doh.Method) {
	s := study(b)
	client := doh.Client{Roots: s.Roots, Method: method}
	tgt := s.Targets[0]
	raw, err := s.World.Dial(netip.MustParseAddr("172.20.1.1"), tgt.DoHAddr, doh.Port)
	if err != nil {
		b.Fatal(err)
	}
	conn, err := client.DialConnContext(context.Background(), tgt.DoH, raw)
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query("bench."+core.ProbeZone, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationDoHMethodGET(b *testing.B)  { benchDoHMethod(b, doh.GET) }
func BenchmarkAblationDoHMethodPOST(b *testing.B) { benchDoHMethod(b, doh.POST) }

// --- Steady-state exchange benchmarks ----------------------------------
//
// These are the allocation-budget anchors of the performance contract
// (DESIGN.md §9): one DNS transaction on a session dialed by
// resolver.Client.Dial and primed by one Exchange — the reused session the
// study times, the amortized arm of the paper's §4.3 comparison. The
// harness (cmd/doebench) tracks their allocs/op across PRs;
// alloc_budget_test.go pins hard ceilings.

// primedSession dials a session to ep over p and primes it with one
// Exchange of msg, so steady state starts after the dial and the first
// query.
func primedSession(b *testing.B, c *resolver.Client, p resolver.Proto, ep resolver.Endpoint, msg *dnswire.Message) resolver.Session {
	b.Helper()
	sess, err := c.Dial(context.Background(), p, ep)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sess.Exchange(context.Background(), msg); err != nil {
		b.Fatal(err)
	}
	return sess
}

// benchSerialExchange times one Exchange after another on a primed
// session.
func benchSerialExchange(b *testing.B, c *resolver.Client, p resolver.Proto, ep resolver.Endpoint) {
	b.Helper()
	msg := dnswire.NewQuery(0, "bench."+core.ProbeZone, dnswire.TypeA)
	sess := primedSession(b, c, p, ep, msg)
	defer sess.Close()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sess.Exchange(context.Background(), msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSteadyStateDoTExchange(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	benchSerialExchange(b, c, resolver.ProtoDoT, resolver.Endpoint{Addr: s.Targets[0].DoT})
}

func BenchmarkSteadyStateDoHExchange(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	tgt := s.Targets[0]
	benchSerialExchange(b, c, resolver.ProtoDoH, resolver.Endpoint{Addr: tgt.DoHAddr, Template: tgt.DoH})
}

func BenchmarkSteadyStateDoQExchange(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	benchSerialExchange(b, c, resolver.ProtoDoQ, resolver.Endpoint{Addr: s.Targets[0].DoQ})
}

func BenchmarkSteadyStateTCPExchange(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	benchSerialExchange(b, c, resolver.ProtoTCP, resolver.Endpoint{Addr: s.Targets[0].DNS})
}

// benchConcurrentExchange drives waves of inflight concurrent Exchanges on
// one multiplexed session; allocs/op is per query, including the goroutine
// fan-out, and the budget contract keeps it within 1.5× the serial paths.
func benchConcurrentExchange(b *testing.B, c *resolver.Client, p resolver.Proto, ep resolver.Endpoint, inflight int) {
	b.Helper()
	msg := dnswire.NewQuery(0, "bench."+core.ProbeZone, dnswire.TypeA)
	sess := primedSession(b, c, p, ep, msg)
	defer sess.Close()
	var firstErr error
	var errMu sync.Mutex
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += inflight {
		n := inflight
		if b.N-i < n {
			n = b.N - i
		}
		var wg sync.WaitGroup
		wg.Add(n)
		for j := 0; j < n; j++ {
			go func() {
				defer wg.Done()
				if _, err := sess.Exchange(context.Background(), msg); err != nil {
					errMu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					errMu.Unlock()
				}
			}()
		}
		wg.Wait()
		if firstErr != nil {
			b.Fatal(firstErr)
		}
	}
}

func BenchmarkSteadyStateDoTExchangeInflight8(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	benchConcurrentExchange(b, c, resolver.ProtoDoT, resolver.Endpoint{Addr: s.Targets[0].DoT}, 8)
}

func BenchmarkSteadyStateDoHExchangeInflight8(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	tgt := s.Targets[0]
	benchConcurrentExchange(b, c, resolver.ProtoDoH, resolver.Endpoint{Addr: tgt.DoHAddr, Template: tgt.DoH}, 8)
}

func BenchmarkSteadyStateDoQExchangeInflight8(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	benchConcurrentExchange(b, c, resolver.ProtoDoQ, resolver.Endpoint{Addr: s.Targets[0].DoQ}, 8)
}

func BenchmarkSteadyStateTCPExchangeInflight8(b *testing.B) {
	s := study(b)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	benchConcurrentExchange(b, c, resolver.ProtoTCP, resolver.Endpoint{Addr: s.Targets[0].DNS}, 8)
}

// --- Substrate micro-benchmarks ----------------------------------------

func BenchmarkWirePack(b *testing.B) {
	m := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA).Reply()
	m.AddAnswer("www.example.com", 300, dnswire.CNAME{Target: "cdn.example.com"})
	m.AddAnswer("cdn.example.com", 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.Pack(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWireUnpack(b *testing.B) {
	m := dnswire.NewQuery(1, "www.example.com", dnswire.TypeA).Reply()
	m.AddAnswer("www.example.com", 300, dnswire.CNAME{Target: "cdn.example.com"})
	m.AddAnswer("cdn.example.com", 60, dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")})
	packed, err := m.Pack()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dnswire.Unpack(packed); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSimTunnelRoundTrip(b *testing.B) {
	s := study(b)
	node := cleanNode(b, s)
	tunnel, err := s.Global.Dial(netip.MustParseAddr("172.16.0.9"), node.ID, s.Targets[3].DNS, 53)
	if err != nil {
		b.Fatal(err)
	}
	defer tunnel.Close()
	q, err := dnswire.PackTCP(dnswire.NewQuery(9, "bench."+core.ProbeZone, dnswire.TypeA))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tunnel.Write(q); err != nil {
			b.Fatal(err)
		}
		if _, err := dnswire.ReadTCP(tunnel); err != nil {
			b.Fatal(err)
		}
	}
}

// TLS session resumption: RFC 7858 §3.4's second amortization lever.
// Fresh full handshakes versus ticket-resumed handshakes (real CPU cost;
// virtual RTT is identical in TLS 1.3).
func benchResumption(b *testing.B, cache bool) {
	s := study(b)
	client := dot.NewClient(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, dot.Strict)
	if cache {
		client.SessionCache = tls.NewLRUClientSessionCache(16)
		// Prime the cache (ticket arrives with the first transaction).
		conn, err := client.Dial(s.Targets[2].DoT)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Query("prime."+core.ProbeZone, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
	b.ResetTimer()
	resumed := 0
	for i := 0; i < b.N; i++ {
		conn, err := client.Dial(s.Targets[2].DoT)
		if err != nil {
			b.Fatal(err)
		}
		if conn.Resumed() {
			resumed++
		}
		if _, err := conn.Query("res."+core.ProbeZone, dnswire.TypeA); err != nil {
			b.Fatal(err)
		}
		conn.Close()
	}
	b.ReportMetric(float64(resumed)/float64(b.N)*100, "resumed-%")
}

func BenchmarkAblationTLSFullHandshake(b *testing.B) { benchResumption(b, false) }
func BenchmarkAblationTLSResumption(b *testing.B)    { benchResumption(b, true) }

// QNAME minimisation (RFC 7816, Table 8's "QM" column): privacy versus
// extra upstream queries during iterative resolution.
func benchQNAMEMin(b *testing.B, qmin bool) {
	w := netsim.NewWorld(99)
	w.Geo.Register(netip.MustParsePrefix("0.0.0.0/0"), geo.Location{Country: "US"})
	rootIP := netip.MustParseAddr("198.41.0.4")
	tldIP := netip.MustParseAddr("192.5.6.30")
	sldIP := netip.MustParseAddr("198.51.100.1")

	root := dnsserver.NewZone(".")
	root.Delegate("org.", "a.org-servers.example.", tldIP)
	w.RegisterDatagram(rootIP, 53, dnsserver.DatagramHandler(root))
	org := dnsserver.NewZone("org.")
	org.Delegate("bench.org.", "ns1.bench.org.", sldIP)
	w.RegisterDatagram(tldIP, 53, dnsserver.DatagramHandler(org))
	sld := dnsserver.NewZone("bench.org.")
	sld.WildcardA = netip.MustParseAddr("203.0.113.1")
	w.RegisterDatagram(sldIP, 53, dnsserver.DatagramHandler(sld))

	r := dnsserver.NewIterative(w, netip.MustParseAddr("192.0.2.77"), []netip.Addr{rootIP})
	r.QNAMEMinimisation = qmin
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := dnswire.NewQuery(1, fmt.Sprintf("h%d.www.bench.org", i), dnswire.TypeA)
		resp, _ := r.ServeDNS(netip.Addr{}, q)
		if resp.Rcode != dnswire.RcodeSuccess {
			b.Fatalf("rcode = %v", resp.Rcode)
		}
	}
	leaked := 0
	for _, q := range r.SentQueries() {
		if q.Server == rootIP && strings.Contains(q.Name, "www.") {
			leaked++
		}
	}
	b.ReportMetric(float64(len(r.SentQueries()))/float64(b.N), "upstream-queries/op")
	b.ReportMetric(float64(leaked), "full-names-leaked-to-root")
}

func BenchmarkAblationQNAMEMinOff(b *testing.B) { benchQNAMEMin(b, false) }
func BenchmarkAblationQNAMEMinOn(b *testing.B)  { benchQNAMEMin(b, true) }
