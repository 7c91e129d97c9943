package scanner

import (
	"context"
	"errors"
	"net"
	"net/netip"
	"reflect"
	"strconv"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
)

func TestPermutationCoversExactlyOnce(t *testing.T) {
	for _, n := range []uint64{1, 2, 7, 64, 100, 1000} {
		p, err := NewPermutation(n, 42)
		if err != nil {
			t.Fatal(err)
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v >= n {
				t.Fatalf("n=%d: out-of-range value %d", n, v)
			}
			if seen[v] {
				t.Fatalf("n=%d: duplicate value %d", n, v)
			}
			seen[v] = true
		}
		if uint64(len(seen)) != n {
			t.Fatalf("n=%d: covered %d values", n, len(seen))
		}
	}
}

func TestQuickPermutationBijective(t *testing.T) {
	f := func(nRaw uint16, seed uint64) bool {
		n := uint64(nRaw%2000) + 1
		p, err := NewPermutation(n, seed)
		if err != nil {
			return false
		}
		seen := make(map[uint64]bool, n)
		for {
			v, ok := p.Next()
			if !ok {
				break
			}
			if v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return uint64(len(seen)) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPermutationIsNotSequential(t *testing.T) {
	p, _ := NewPermutation(1024, 9)
	sequentialRuns := 0
	prev, _ := p.Next()
	for i := 0; i < 200; i++ {
		v, ok := p.Next()
		if !ok {
			break
		}
		if v == prev+1 {
			sequentialRuns++
		}
		prev = v
	}
	if sequentialRuns > 20 {
		t.Errorf("permutation looks sequential: %d adjacent steps of 200", sequentialRuns)
	}
}

func TestPermutationEmpty(t *testing.T) {
	if _, err := NewPermutation(0, 1); err == nil {
		t.Error("accepted empty permutation")
	}
}

// scanFixture builds a small world with a mixed port-853 population.
type scanFixture struct {
	world    *netsim.World
	ca       *certs.CA
	scanner  *Scanner
	expected netip.Addr
}

func newScanFixture(t *testing.T) *scanFixture {
	t.Helper()
	w := netsim.NewWorld(31)
	w.Geo.Register(netip.MustParsePrefix("100.64.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("100.64.1.0/24"), geo.Location{Country: "IE"})
	ca, err := certs.NewCA("Root", true)
	if err != nil {
		t.Fatal(err)
	}
	expected := netip.MustParseAddr("203.0.113.10")
	zone := dnsserver.NewZone("scan.example.org")
	zone.WildcardA = expected

	mk := func(ip string, leaf *certs.Leaf, h dnsserver.Handler) {
		dot.Serve(w, netip.MustParseAddr(ip), leaf, h, 0)
	}
	valid := func(cn string) *certs.Leaf {
		leaf, err := ca.Issue(certs.LeafOptions{CommonName: cn})
		if err != nil {
			t.Fatal(err)
		}
		return leaf
	}
	// Two resolvers of one provider (valid certs), one small provider
	// (self-signed), one dnsfilter-style fixed-answer resolver, one
	// port-open-but-not-DNS host, one with an expired cert.
	mk("100.64.0.10", valid("dns.bigdns.example"), zone)
	mk("100.64.1.11", valid("dot.bigdns.example"), zone)
	selfSigned, err := certs.SelfSigned(certs.LeafOptions{CommonName: "qq.dog"})
	if err != nil {
		t.Fatal(err)
	}
	mk("100.64.0.20", selfSigned, zone)
	mk("100.64.0.30", valid("dns.dnsfilter.example"), dnsserver.Static{Addr: netip.MustParseAddr("1.2.3.4")})
	dot.ServeNotDNS(w, netip.MustParseAddr("100.64.0.40"), valid("mail.example"))
	expired, err := ca.IssueExpired(certs.LeafOptions{CommonName: "old.example"}, 9*30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	mk("100.64.0.50", expired, zone)

	s := &Scanner{
		World:       w,
		Sources:     []netip.Addr{netip.MustParseAddr("100.64.0.1"), netip.MustParseAddr("100.64.0.2")},
		Space:       Space{Base: netip.MustParseAddr("100.64.0.0"), Size: 512},
		OptOut:      &netsim.OptOutList{},
		ProbeDomain: "probe-1.scan.example.org",
		ExpectedA:   expected,
		Roots:       certs.Pool(ca),
		Workers:     4,
		Seed:        7,
	}
	return &scanFixture{world: w, ca: ca, scanner: s, expected: expected}
}

func TestScanDiscoversResolvers(t *testing.T) {
	f := newScanFixture(t)
	res, err := f.scanner.ScanContext(context.Background(), "test-1")
	if err != nil {
		t.Fatal(err)
	}
	if res.PortOpen != 6 {
		t.Errorf("port open = %d, want 6", res.PortOpen)
	}
	// The not-DNS host must be excluded from resolvers.
	if len(res.Resolvers) != 5 {
		t.Fatalf("resolvers = %d, want 5: %+v", len(res.Resolvers), res.Resolvers)
	}
	byAddr := map[string]Resolver{}
	for _, r := range res.Resolvers {
		byAddr[r.Addr.String()] = r
	}
	if r := byAddr["100.64.0.10"]; r.Provider != "bigdns.example" || r.CertStatus != certs.StatusValid || !r.AnswerCorrect {
		t.Errorf("big provider resolver = %+v", r)
	}
	if r := byAddr["100.64.0.20"]; r.CertStatus != certs.StatusSelfSigned {
		t.Errorf("self-signed resolver = %+v", r)
	}
	if r := byAddr["100.64.0.30"]; r.AnswerCorrect {
		t.Errorf("dnsfilter-style resolver marked correct: %+v", r)
	}
	if r := byAddr["100.64.0.50"]; r.CertStatus != certs.StatusExpired {
		t.Errorf("expired resolver = %+v", r)
	}
	// Provider grouping: bigdns.example has two addresses.
	if got := res.ProviderCounts()["bigdns.example"]; got != 2 {
		t.Errorf("bigdns.example count = %d, want 2", got)
	}
	invalid := res.InvalidCertProviders()
	if len(invalid) != 2 { // qq.dog (self-signed) + old.example (expired)
		t.Errorf("invalid providers = %v", invalid)
	}
	// Country grouping: 100.64.1.11 is in IE.
	if res.CountryCounts()["IE"] != 1 {
		t.Errorf("country counts = %v", res.CountryCounts())
	}
}

// TestScanDeterministicAcrossWorkerCounts is the scanner's half of the
// parallel-engine contract: the merged scan result must be identical for
// every worker count.
func TestScanDeterministicAcrossWorkerCounts(t *testing.T) {
	var want *Result
	for _, workers := range []int{1, 4, 16} {
		f := newScanFixture(t)
		f.scanner.Workers = workers
		res, err := f.scanner.ScanContext(context.Background(), "det")
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res
			continue
		}
		if !reflect.DeepEqual(res, want) {
			t.Errorf("workers=%d: scan result diverged\n got: %+v\nwant: %+v", workers, res, want)
		}
	}
}

func TestScanTreatsBlackholeAsClosed(t *testing.T) {
	f := newScanFixture(t)
	// Blackhole one of the serving resolvers: probes must time out rather
	// than fail authentication, and the scan must count the port closed.
	dropped := netip.MustParseAddr("100.64.0.10")
	f.world.AddPolicy(netsim.PolicyFunc(func(_ *netsim.World, _, to netip.Addr, _ uint16, _ netsim.Proto) netsim.Verdict {
		if to == dropped {
			return netsim.Verdict{Action: netsim.ActBlackhole}
		}
		return netsim.Verdict{}
	}))

	_, err := f.world.Dial(f.scanner.Sources[0], dropped, dot.Port)
	if !errors.Is(err, netsim.ErrBlackhole) {
		t.Fatalf("dial err = %v, want ErrBlackhole", err)
	}
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("dial err = %v, want a net.Error with Timeout() == true", err)
	}

	res, err := f.scanner.ScanContext(context.Background(), "blackhole")
	if err != nil {
		t.Fatal(err)
	}
	if res.PortOpen != 5 {
		t.Errorf("port open = %d, want 5 (blackholed host excluded)", res.PortOpen)
	}
	for _, r := range res.Resolvers {
		if r.Addr == dropped {
			t.Errorf("blackholed host %v still listed as resolver", dropped)
		}
	}
}

func TestScanHonorsOptOut(t *testing.T) {
	f := newScanFixture(t)
	f.scanner.OptOut.Add(netip.MustParsePrefix("100.64.0.10/32"))
	res, err := f.scanner.ScanContext(context.Background(), "optout")
	if err != nil {
		t.Fatal(err)
	}
	if res.SkippedOptOut != 1 {
		t.Errorf("skipped = %d, want 1", res.SkippedOptOut)
	}
	for _, r := range res.Resolvers {
		if r.Addr == netip.MustParseAddr("100.64.0.10") {
			t.Error("opted-out address was probed")
		}
	}
}

func TestScanNoSources(t *testing.T) {
	f := newScanFixture(t)
	f.scanner.Sources = nil
	if _, err := f.scanner.ScanContext(context.Background(), "x"); err == nil {
		t.Error("scan without sources succeeded")
	}
}

// TestScanRejectsSpaceBeyondIPv4: sweep targets are 32-bit offsets, so a
// space larger than IPv4 is refused before anything is allocated.
func TestScanRejectsSpaceBeyondIPv4(t *testing.T) {
	f := newScanFixture(t)
	f.scanner.Space = Space{Base: netip.MustParseAddr("0.0.0.0"), Size: 1<<32 + 1}
	if _, err := f.scanner.ScanContext(context.Background(), "x"); err == nil {
		t.Error("scan of more than 2^32 addresses succeeded")
	}
}

func TestInspectCorpus(t *testing.T) {
	urls := []string{
		"https://dns.example.com/dns-query",
		"https://dns.example.com/dns-query?dns=AAAA", // params stripped, dedup
		"https://dns.google/resolve",
		"https://cdn.example.net/assets/app.js", // noise
		"https://hidden.example.org/secret-doh", // unknown path: missed
		"http://insecure.example/dns-query",     // not https
		"https://dns.233py.example/dns-query",
	}
	cands := InspectCorpus(urls)
	if len(cands) != 3 {
		t.Fatalf("candidates = %+v", cands)
	}
	if cands[0].Host != "dns.233py.example" {
		t.Errorf("order/dedup wrong: %+v", cands)
	}
}

// dropFirstSYN is a scripted netsim.FaultInjector: it loses the first SYN
// to addr and lets every other flow through.
type dropFirstSYN struct {
	addr    netip.Addr
	dropped atomic.Bool
}

func (d *dropFirstSYN) StreamFault(_, to netip.Addr, _ uint16) netsim.DialFault {
	return netsim.DialFault{Drop: to == d.addr && d.dropped.CompareAndSwap(false, true)}
}

func (d *dropFirstSYN) DatagramFault(netip.Addr, netip.Addr, uint16) netsim.DatagramFault {
	return netsim.DatagramFault{}
}

// TestDoHDiscoveryVerify pins what the availability check reports and its
// retry contract: a transport failure is retried within Attempts, and a DNS
// answer, even a failing one, ends the candidate's probing.
func TestDoHDiscoveryVerify(t *testing.T) {
	workerIP := netip.MustParseAddr("100.64.0.100")
	servfailIP := netip.MustParseAddr("100.64.0.101")
	worker := DoHCandidate{Host: "doh.worker.example", Path: "/dns-query"}
	servfail := DoHCandidate{Host: "servfail.example", Path: "/dns-query"}
	for _, tc := range []struct {
		name       string
		candidates []DoHCandidate
		attempts   int
		dropFirst  bool // lose the first SYN to the worker
		found      bool // the worker is reported
		servfails  int32
	}{
		{name: "one pass", candidates: []DoHCandidate{
			worker,
			{Host: "dead.example", Path: "/dns-query"},
			{Host: "unresolvable.example", Path: "/dns-query"},
		}, found: true},
		{name: "lost SYN retried", candidates: []DoHCandidate{worker}, attempts: 2, dropFirst: true, found: true},
		{name: "lost SYN with one attempt", candidates: []DoHCandidate{worker}, attempts: 1, dropFirst: true},
		{name: "SERVFAIL asked once", candidates: []DoHCandidate{servfail}, attempts: 3, servfails: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newScanFixture(t)
			zone := dnsserver.NewZone("scan.example.org")
			zone.WildcardA = f.expected
			leaf := func(cn string) *certs.Leaf {
				l, err := f.ca.Issue(certs.LeafOptions{CommonName: cn})
				if err != nil {
					t.Fatal(err)
				}
				return l
			}
			doh.Serve(f.world, workerIP, leaf(worker.Host), &doh.Server{Handler: zone})
			var asked atomic.Int32
			doh.Serve(f.world, servfailIP, leaf(servfail.Host), &doh.Server{Handler: dnsserver.HandlerFunc(
				func(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
					asked.Add(1)
					return dnsserver.ServFail{}.ServeDNS(remote, req)
				})})
			if tc.dropFirst {
				f.world.SetFaults(&dropFirstSYN{addr: workerIP})
			}

			d := &DoHDiscovery{
				World: f.world,
				From:  netip.MustParseAddr("100.64.0.1"),
				Roots: certs.Pool(f.ca),
				Resolve: map[string]netip.Addr{
					worker.Host:    workerIP,
					servfail.Host:  servfailIP,
					"dead.example": netip.MustParseAddr("100.64.0.99"),
				},
				ProbeDomain: "probe-2.scan.example.org",
				KnownList:   []string{"https://known.example/dns-query{?dns}"},
				Attempts:    tc.attempts,
			}
			found := d.Verify(context.Background(), tc.candidates)
			if !tc.found {
				if len(found) != 0 {
					t.Errorf("found = %+v, want none", found)
				}
			} else if len(found) != 1 || found[0].Template.Host != worker.Host || found[0].Addr != workerIP {
				t.Errorf("found = %+v, want the worker alone", found)
			} else if found[0].InKnownList {
				t.Error("new resolver wrongly marked as known")
			}
			if got := asked.Load(); got != tc.servfails {
				t.Errorf("SERVFAIL server asked %d times, want %d", got, tc.servfails)
			}
		})
	}
}

// TestScanTelemetry pins the names the scan publishes: the round span and
// its attributes, the sweep and probe pools in Progress, and the outcome
// counter families (hostbench's count.scanner.* metrics read two of them).
func TestScanTelemetry(t *testing.T) {
	const open, resolvers = 6, 5
	t.Run("dot", func(t *testing.T) {
		f := newScanFixture(t)
		rec := obs.NewRecorder("study")
		res, err := f.scanner.ScanContext(obs.WithRecorder(context.Background(), rec), "tele")
		if err != nil {
			t.Fatal(err)
		}
		if res.PortOpen != open || len(res.Resolvers) != resolvers {
			t.Fatalf("scan = %d open, %d resolvers; want %d, %d", res.PortOpen, len(res.Resolvers), open, resolvers)
		}

		var span *obs.Record
		recs := rec.Records()
		for i := range recs {
			if recs[i].Path == "study/scan:tele" {
				span = &recs[i]
			}
		}
		if span == nil {
			t.Fatalf("no scan:tele span in %+v", recs)
		}
		for k, want := range map[string]string{
			"probed":    "512",
			"port_open": strconv.Itoa(open),
			"resolvers": strconv.Itoa(resolvers),
		} {
			if got := span.Attrs[k]; got != want {
				t.Errorf("span attr %s = %q, want %q", k, got, want)
			}
		}

		phases := map[string]obs.PhaseStatus{}
		for _, p := range rec.Progress() {
			phases[p.Name] = p
		}
		for pool, total := range map[string]int64{"scan-sweep": 512, "scan-probe": open} {
			if p, ok := phases[pool]; !ok || p.Done != total || p.Total != total {
				t.Errorf("pool %s progress = %+v (present %v), want %d/%d", pool, p, ok, total, total)
			}
		}

		m := rec.Metrics()
		for _, cnt := range []struct {
			family, outcome string
			want            int64
		}{
			{"scanner_sweep_dials_total", "open", open},
			{"scanner_sweep_dials_total", "closed", 512 - open},
			{"scanner_probes_total", "resolver", resolvers},
			{"scanner_probes_total", "no-dot", open - resolvers},
		} {
			if got := m.Counter(cnt.family, "outcome", cnt.outcome).Value(); got != cnt.want {
				t.Errorf("%s{outcome=%s} = %d, want %d", cnt.family, cnt.outcome, got, cnt.want)
			}
		}
	})
}

// slowHandler answers like h after holding each reply for d of wall time,
// a server on a CPU-starved host as the prober sees it.
func slowHandler(h dnsserver.Handler, d time.Duration) dnsserver.Handler {
	return dnsserver.HandlerFunc(func(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
		time.Sleep(d)
		return h.ServeDNS(remote, req)
	})
}

// The scan's probes arm no real-time guard: a DoT resolver and a DoH
// service that take just over 2 s of wall time to answer are still found,
// where a wall-clock deadline would have turned them into misses.
func TestProbesWaitForWallClockSlowServers(t *testing.T) {
	const hold = 2100 * time.Millisecond
	t.Run("dot", func(t *testing.T) {
		t.Parallel()
		f := newScanFixture(t)
		slow := netip.MustParseAddr("100.64.0.70")
		leaf, err := f.ca.Issue(certs.LeafOptions{CommonName: "dns.slow.example"})
		if err != nil {
			t.Fatal(err)
		}
		zone := dnsserver.NewZone("scan.example.org")
		zone.WildcardA = f.expected
		dot.Serve(f.world, slow, leaf, slowHandler(zone, hold), 0)
		res, err := f.scanner.ScanContext(context.Background(), "slow")
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, r := range res.Resolvers {
			found = found || r.Addr == slow && r.AnswerCorrect
		}
		if !found {
			t.Errorf("slow DoT resolver %v missing from %+v", slow, res.Resolvers)
		}
	})
	t.Run("doh", func(t *testing.T) {
		t.Parallel()
		f := newScanFixture(t)
		slow := netip.MustParseAddr("100.64.0.71")
		cand := DoHCandidate{Host: "doh.slow.example", Path: "/dns-query"}
		leaf, err := f.ca.Issue(certs.LeafOptions{CommonName: cand.Host})
		if err != nil {
			t.Fatal(err)
		}
		zone := dnsserver.NewZone("scan.example.org")
		zone.WildcardA = f.expected
		doh.Serve(f.world, slow, leaf, &doh.Server{Handler: slowHandler(zone, hold)})
		d := &DoHDiscovery{
			World:       f.world,
			From:        netip.MustParseAddr("100.64.0.1"),
			Roots:       certs.Pool(f.ca),
			Resolve:     map[string]netip.Addr{cand.Host: slow},
			ProbeDomain: "probe-2.scan.example.org",
		}
		if found := d.Verify(context.Background(), []DoHCandidate{cand}); len(found) != 1 || found[0].Addr != slow {
			t.Errorf("found = %+v, want the slow DoH service", found)
		}
	})
}
