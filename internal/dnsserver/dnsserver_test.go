package dnsserver

import (
	"context"
	"net/netip"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	clientIP   = netip.MustParseAddr("10.1.0.2")
	resolverIP = netip.MustParseAddr("192.0.2.53")
	authIP     = netip.MustParseAddr("198.51.100.53")
)

func newWorld() *netsim.World {
	w := netsim.NewWorld(7)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL"})
	w.Geo.Register(netip.MustParsePrefix("198.51.100.0/24"), geo.Location{Country: "US"})
	return w
}

func TestZoneAnswersAndWildcard(t *testing.T) {
	z := NewZone("measure.example.org")
	z.WildcardA = netip.MustParseAddr("203.0.113.1")
	z.Add("static.measure.example.org", 300, dnswire.A{Addr: netip.MustParseAddr("203.0.113.2")})

	q := dnswire.NewQuery(1, "static.measure.example.org", dnswire.TypeA)
	resp, _ := z.ServeDNS(clientIP, q)
	if a, ok := resp.Answers[0].Data.(dnswire.A); !ok || a.Addr != netip.MustParseAddr("203.0.113.2") {
		t.Errorf("static answer = %v", resp.Answers)
	}

	q2 := dnswire.NewQuery(2, "nonce-12345.measure.example.org", dnswire.TypeA)
	resp2, _ := z.ServeDNS(clientIP, q2)
	if a, ok := resp2.Answers[0].Data.(dnswire.A); !ok || a.Addr != z.WildcardA {
		t.Errorf("wildcard answer = %v", resp2.Answers)
	}
}

func TestZoneRefusesOutOfZone(t *testing.T) {
	z := NewZone("measure.example.org")
	q := dnswire.NewQuery(1, "www.google.com", dnswire.TypeA)
	resp, _ := z.ServeDNS(clientIP, q)
	if resp.Rcode != dnswire.RcodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.Rcode)
	}
}

func TestZoneNXDomainAndNoData(t *testing.T) {
	z := NewZone("example.org")
	z.Add("txt.example.org", 60, dnswire.TXT{Texts: []string{"x"}})
	resp, _ := z.ServeDNS(clientIP, dnswire.NewQuery(1, "missing.example.org", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("missing name rcode = %v, want NXDOMAIN", resp.Rcode)
	}
	resp2, _ := z.ServeDNS(clientIP, dnswire.NewQuery(2, "txt.example.org", dnswire.TypeA))
	if resp2.Rcode != dnswire.RcodeSuccess || len(resp2.Answers) != 0 {
		t.Errorf("NODATA response = %v / %d answers", resp2.Rcode, len(resp2.Answers))
	}
}

func TestStaticHandler(t *testing.T) {
	fixed := netip.MustParseAddr("103.247.37.37")
	s := Static{Addr: fixed}
	resp, _ := s.ServeDNS(clientIP, dnswire.NewQuery(1, "anything.example.com", dnswire.TypeA))
	if a, ok := resp.Answers[0].Data.(dnswire.A); !ok || a.Addr != fixed {
		t.Errorf("static resolver answer = %v", resp.Answers)
	}
}

func TestServFailHandler(t *testing.T) {
	resp, _ := ServFail{}.ServeDNS(clientIP, dnswire.NewQuery(1, "x.example", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %v", resp.Rcode)
	}
}

// setupRecursive wires a zone behind a recursive resolver on the test world.
func setupRecursive(t *testing.T, w *netsim.World) *Resolver {
	t.Helper()
	z := NewZone("measure.example.org")
	z.WildcardA = netip.MustParseAddr("203.0.113.1")
	w.RegisterDatagram(authIP, 53, DatagramHandler(z))
	r := NewResolver(w, resolverIP, map[string]netip.Addr{"measure.example.org": authIP})
	Serve(w, resolverIP, r)
	return r
}

// dialTCP opens a clear-text DNS session to resolverIP:53.
func dialTCP(t *testing.T, w *netsim.World) *dnsclient.TCPConn {
	t.Helper()
	raw, err := w.Dial(clientIP, resolverIP, 53)
	if err != nil {
		t.Fatal(err)
	}
	return dnsclient.TCPFromConn(raw)
}

func TestRecursiveResolutionOverUDP(t *testing.T) {
	w := newWorld()
	setupRecursive(t, w)
	c := dnsclient.New(w, clientIP)
	res, err := c.QueryUDPContext(context.Background(), resolverIP, "abc.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != netip.MustParseAddr("203.0.113.1") {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Latency <= 0 {
		t.Error("latency not accounted")
	}
}

func TestRecursiveCacheMakesSecondQueryFaster(t *testing.T) {
	w := newWorld()
	r := setupRecursive(t, w)
	c := dnsclient.New(w, clientIP)
	first, err := c.QueryUDPContext(context.Background(), resolverIP, "cached.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if r.CacheLen() != 1 {
		t.Errorf("cache len = %d, want 1", r.CacheLen())
	}
	second, err := c.QueryUDPContext(context.Background(), resolverIP, "cached.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if second.Latency >= first.Latency {
		t.Errorf("cached query latency %v not below first %v", second.Latency, first.Latency)
	}
}

func TestResolverServFailOnUnknownZone(t *testing.T) {
	w := newWorld()
	r := NewResolver(w, resolverIP, map[string]netip.Addr{})
	resp, _ := r.ServeDNS(clientIP, dnswire.NewQuery(5, "unrouted.example", dnswire.TypeA))
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.Rcode)
	}
}

func TestStreamServerConnectionReuse(t *testing.T) {
	w := newWorld()
	setupRecursive(t, w)
	conn := dialTCP(t, w)
	defer conn.Close()

	// Several queries over one connection (RFC 7766 reuse).
	var latencies []time.Duration
	for i := 0; i < 5; i++ {
		res, err := conn.Query("q"+string(rune('a'+i))+".measure.example.org", dnswire.TypeA)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		latencies = append(latencies, res.Latency)
	}
	// Reused-connection queries exclude the handshake; each is roughly one
	// RTT (plus resolver processing), far below setup + query.
	if latencies[1] >= conn.SetupLatency()+latencies[0] {
		t.Errorf("reused query latency %v not below setup+first %v", latencies[1], conn.SetupLatency()+latencies[0])
	}
}

func TestQueryTCPFreshConnection(t *testing.T) {
	w := newWorld()
	setupRecursive(t, w)
	conn := dialTCP(t, w)
	defer conn.Close()
	res, err := conn.QueryContext(context.Background(), "fresh.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.FirstA(); !ok {
		t.Error("no A answer over TCP")
	}
}

func TestDatagramHandlerRejectsGarbage(t *testing.T) {
	h := DatagramHandler(ServFail{})
	if _, _, err := h(clientIP, []byte{1, 2, 3}); err == nil {
		t.Error("garbage accepted")
	}
}

func TestUDPQueryAgainstStatic(t *testing.T) {
	w := newWorld()
	fixed := netip.MustParseAddr("103.247.37.37")
	w.RegisterDatagram(resolverIP, 53, DatagramHandler(Static{Addr: fixed}))
	c := dnsclient.New(w, clientIP)
	res, err := c.QueryUDPContext(context.Background(), resolverIP, "validate.ourdomain.example", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, _ := res.FirstA(); a != fixed {
		t.Errorf("got %v, want the fixed address", a)
	}
}

func TestClientRetriesUDP(t *testing.T) {
	w := newWorld()
	fails := 0
	w.RegisterDatagram(resolverIP, 53, func(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
		if fails == 0 {
			fails++
			return nil, 0, netsim.ErrBlackhole
		}
		return DatagramHandler(Static{Addr: netip.MustParseAddr("203.0.113.9")})(from, req)
	})
	c := dnsclient.New(w, clientIP)
	if _, err := c.QueryUDPContext(context.Background(), resolverIP, "retry.example", dnswire.TypeA); err != nil {
		t.Fatalf("retry did not recover: %v", err)
	}
}

// TestCacheLimitCapsInsertionWithoutChangingAnswers pins the streaming-
// campaign contract: with task-private (never-repeated) names, a capped
// cache serves identical answers while heap stays O(limit).
func TestCacheLimitCapsInsertionWithoutChangingAnswers(t *testing.T) {
	w := newWorld()
	r := setupRecursive(t, w)
	r.CacheLimit = 3
	c := dnsclient.New(w, clientIP)
	for i := 0; i < 10; i++ {
		name := "n" + string(rune('a'+i)) + ".measure.example.org"
		res, err := c.QueryUDPContext(context.Background(), resolverIP, name, dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if a, ok := res.FirstA(); !ok || a != netip.MustParseAddr("203.0.113.1") {
			t.Fatalf("query %d answer = %v", i, res.Msg.Answers)
		}
	}
	if got := r.CacheLen(); got != 3 {
		t.Errorf("cache len = %d, want capped at 3", got)
	}
	// Entries inserted before the cap filled still hit; names seen after
	// the cap filled were never inserted and pay the upstream trip again.
	hit, err := c.QueryUDPContext(context.Background(), resolverIP, "na.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := c.QueryUDPContext(context.Background(), resolverIP, "nj.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if hit.Latency >= miss.Latency {
		t.Errorf("pre-cap entry latency %v not below uncached %v", hit.Latency, miss.Latency)
	}
}
