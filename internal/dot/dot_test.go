package dot

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net"
	"net/netip"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	clientIP = netip.MustParseAddr("10.1.0.2")
	dotIP    = netip.MustParseAddr("192.0.2.100")
	answerIP = netip.MustParseAddr("203.0.113.1")
)

type fixture struct {
	world *netsim.World
	ca    *certs.CA
	zone  *dnsserver.Zone
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := netsim.NewWorld(11)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL"})
	ca, err := certs.NewCA("DoE Root", true)
	if err != nil {
		t.Fatal(err)
	}
	z := dnsserver.NewZone("measure.example.org")
	z.WildcardA = answerIP
	return &fixture{world: w, ca: ca, zone: z}
}

func (f *fixture) serveDoT(t *testing.T, leaf *certs.Leaf) {
	t.Helper()
	Serve(f.world, dotIP, leaf, f.zone, 0)
}

func (f *fixture) validLeaf(t *testing.T) *certs.Leaf {
	t.Helper()
	leaf, err := f.ca.Issue(certs.LeafOptions{CommonName: "dns.provider.example", IPs: []netip.Addr{dotIP}})
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// queryOnce dials a fresh session with c, bounded by ctx, queries it once
// and closes it. The latency it reports includes the session's setup (the
// no-reuse case of §4.3).
func queryOnce(ctx context.Context, c *Client, name string) (*dnsclient.Result, error) {
	conn, err := c.DialContext(ctx, dotIP)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	res, err := conn.QueryContext(ctx, name, dnswire.TypeA)
	if err != nil {
		return nil, err
	}
	res.Latency = conn.Elapsed()
	return res, nil
}

func TestStrictQueryAgainstValidServer(t *testing.T) {
	f := newFixture(t)
	f.serveDoT(t, f.validLeaf(t))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	res, err := queryOnce(context.Background(), c, "probe-1.measure.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Latency <= 0 {
		t.Error("latency not accounted")
	}
}

func TestStrictRejectsSelfSigned(t *testing.T) {
	f := newFixture(t)
	leaf, err := certs.SelfSigned(certs.LeafOptions{CommonName: "Perfect Privacy"})
	if err != nil {
		t.Fatal(err)
	}
	f.serveDoT(t, leaf)
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	_, err = queryOnce(context.Background(), c, "probe.measure.example.org")
	if !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v, want ErrAuthFailed", err)
	}
	// The wrap exposes the verification cause: a self-signed cert fails
	// with an unknown authority, distinguishable from expiry or timeouts.
	var uae x509.UnknownAuthorityError
	if !errors.As(err, &uae) {
		t.Errorf("err = %v, want x509.UnknownAuthorityError via errors.As", err)
	}
}

func TestOpportunisticProceedsDespiteInvalidCert(t *testing.T) {
	f := newFixture(t)
	leaf, err := certs.SelfSigned(certs.LeafOptions{CommonName: "qq.dog"})
	if err != nil {
		t.Fatal(err)
	}
	f.serveDoT(t, leaf)
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Opportunistic)
	conn, err := c.Dial(dotIP)
	if err != nil {
		t.Fatalf("opportunistic dial failed: %v", err)
	}
	defer conn.Close()
	if conn.VerifyError() == nil {
		t.Error("verification unexpectedly succeeded for self-signed cert")
	}
	res, err := conn.Query("probe.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

func TestConnectionReuseAmortizesSetup(t *testing.T) {
	f := newFixture(t)
	f.world.JitterFrac = 0
	f.serveDoT(t, f.validLeaf(t))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	conn, err := c.Dial(dotIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var reused []time.Duration
	for i := 0; i < 5; i++ {
		res, err := conn.Query("reuse.measure.example.org", dnswire.TypeA)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		reused = append(reused, res.Latency)
	}
	// Each reused-connection query costs roughly one RTT; the TLS session
	// setup (TCP + TLS ≈ 2 RTT) must not recur.
	if reused[2] >= conn.SetupLatency() {
		t.Errorf("reused query latency %v not below setup cost %v", reused[2], conn.SetupLatency())
	}

	// One-shot (fresh connection) latency must exceed reused latency.
	oneShot, err := queryOnce(context.Background(), c, "fresh.measure.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if oneShot.Latency <= reused[2] {
		t.Errorf("fresh latency %v not above reused %v", oneShot.Latency, reused[2])
	}
}

func TestExpiredCertFailsStrictButNotOpportunistic(t *testing.T) {
	f := newFixture(t)
	leaf, err := f.ca.IssueExpired(certs.LeafOptions{CommonName: "old.example"}, 30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	f.serveDoT(t, leaf)

	strict := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	_, strictErr := queryOnce(context.Background(), strict, "x.measure.example.org")
	if !errors.Is(strictErr, ErrAuthFailed) {
		t.Errorf("strict err = %v, want ErrAuthFailed", strictErr)
	}
	var cie x509.CertificateInvalidError
	if !errors.As(strictErr, &cie) || cie.Reason != x509.Expired {
		t.Errorf("strict err = %v, want x509.CertificateInvalidError{Reason: Expired} via errors.As", strictErr)
	}
	opp := NewClient(f.world, clientIP, certs.Pool(f.ca), Opportunistic)
	if _, err := queryOnce(context.Background(), opp, "x.measure.example.org"); err != nil {
		t.Errorf("opportunistic err = %v, want success", err)
	}
}

func TestPeerCertificatesExposed(t *testing.T) {
	f := newFixture(t)
	f.serveDoT(t, f.validLeaf(t))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Opportunistic)
	conn, err := c.Dial(dotIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	chain := conn.PeerCertificates()
	if len(chain) == 0 || chain[0].Subject.CommonName != "dns.provider.example" {
		t.Errorf("peer chain = %v", chain)
	}
	if got := certs.ProviderKey(chain[0]); got != "provider.example" {
		t.Errorf("provider key = %q", got)
	}
}

// TestStrictSessionWithEd25519Leaf: the world's certificates are Ed25519,
// so every handshake signs and verifies with it. A Strict session to an
// issued leaf completes, and the leaf it was shown is Ed25519.
func TestStrictSessionWithEd25519Leaf(t *testing.T) {
	f := newFixture(t)
	f.serveDoT(t, f.validLeaf(t))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	conn, err := c.Dial(dotIP)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.VerifyError(); err != nil {
		t.Fatalf("VerifyError = %v", err)
	}
	chain := conn.PeerCertificates()
	if len(chain) == 0 {
		t.Fatal("no peer certificates")
	}
	if got := chain[0].PublicKeyAlgorithm; got != x509.Ed25519 {
		t.Errorf("leaf key algorithm = %v, want Ed25519", got)
	}
}

func TestNotDNSServerFailsQueries(t *testing.T) {
	f := newFixture(t)
	leaf := f.validLeaf(t)
	ServeNotDNS(f.world, dotIP, leaf)
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Opportunistic)
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := queryOnce(ctx, c, "probe.measure.example.org"); err == nil {
		t.Error("query against not-DNS port-853 service succeeded")
	}
}

// The TLS-but-not-DNS background shares one TLS config per listener, so
// its session tickets outlive the connection that issued them.
func TestNotDNSServerResumesSessions(t *testing.T) {
	f := newFixture(t)
	ServeNotDNS(f.world, dotIP, f.validLeaf(t))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Opportunistic)
	c.SessionCache = tls.NewLRUClientSessionCache(8)
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for i, want := range []bool{false, true} {
		conn, err := c.DialContext(ctx, dotIP)
		if err != nil {
			t.Fatal(err)
		}
		if got := conn.Resumed(); got != want {
			t.Errorf("dial %d: resumed = %v, want %v", i+1, got, want)
		}
		// The query fails, but its read takes the session ticket first.
		conn.Query("resume.measure.example.org", dnswire.TypeA) //nolint:errcheck
		conn.Close()
	}
}

func TestDialRefusedHost(t *testing.T) {
	f := newFixture(t)
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	if _, err := c.Dial(dotIP); !errors.Is(err, netsim.ErrRefused) {
		t.Errorf("err = %v, want refused", err)
	}
}

func TestDialBlackholedHostIsTimeout(t *testing.T) {
	f := newFixture(t)
	f.world.AddPolicy(netsim.PolicyFunc(func(_ *netsim.World, _, to netip.Addr, _ uint16, _ netsim.Proto) netsim.Verdict {
		if to == dotIP {
			return netsim.Verdict{Action: netsim.ActBlackhole}
		}
		return netsim.Verdict{}
	}))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	_, err := c.Dial(dotIP)
	if !errors.Is(err, netsim.ErrBlackhole) {
		t.Fatalf("err = %v, want ErrBlackhole", err)
	}
	// Timeouts must be classifiable as net.Error timeouts, distinct from
	// authentication failures.
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("err = %v, want a net.Error with Timeout() == true", err)
	}
	if errors.Is(err, ErrAuthFailed) {
		t.Errorf("timeout misclassified as authentication failure")
	}
}

func TestProfileString(t *testing.T) {
	if Strict.String() != "strict" || Opportunistic.String() != "opportunistic" {
		t.Error("Profile.String mismatch")
	}
}

func TestSessionResumption(t *testing.T) {
	f := newFixture(t)
	f.serveDoT(t, f.validLeaf(t))
	c := NewClient(f.world, clientIP, certs.Pool(f.ca), Strict)
	c.SessionCache = tls.NewLRUClientSessionCache(8)

	first, err := c.Dial(dotIP)
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed() {
		t.Error("first session claims resumption")
	}
	// Complete a transaction so the client processes the session tickets.
	if _, err := first.Query("resume-1.measure.example.org", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	first.Close()

	second, err := c.Dial(dotIP)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if !second.Resumed() {
		t.Error("second session not resumed despite session cache")
	}
	if _, err := second.Query("resume-2.measure.example.org", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
}
