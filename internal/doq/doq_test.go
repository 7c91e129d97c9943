package doq

import (
	"bytes"
	"context"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	clientIP = netip.MustParseAddr("10.1.0.2")
	doqIP    = netip.MustParseAddr("192.0.2.100")
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

func (f *fixture) serveDoQ(t *testing.T, leaf *certs.Leaf) *Server {
	t.Helper()
	return Serve(f.world, doqIP, leaf, f.zone, 0)
}

func (f *fixture) validLeaf(t *testing.T) *certs.Leaf {
	t.Helper()
	leaf, err := f.ca.Issue(certs.LeafOptions{CommonName: "dns.provider.example", IPs: []netip.Addr{doqIP}})
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

// dial opens a session with c over the direct datagram path to the server.
func (f *fixture) dial(c *Client) (*Conn, error) {
	return c.DialVia(context.Background(), doqIP, func(req []byte) ([]byte, time.Duration, error) {
		return f.world.Exchange(clientIP, doqIP, Port, req)
	})
}

func TestStrictQueryAgainstValidServer(t *testing.T) {
	f := newFixture(t)
	f.serveDoQ(t, f.validLeaf(t))
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	conn, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if conn.Resumed() {
		t.Error("fresh dial reported as resumed")
	}
	if conn.SetupLatency() <= 0 {
		t.Error("1-RTT handshake setup not accounted")
	}
	if conn.VerifyError() != nil {
		t.Errorf("verify error: %v", conn.VerifyError())
	}
	if len(conn.PeerCertificates()) == 0 {
		t.Error("no peer certificates recorded")
	}
	res, err := conn.Query("probe-1.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Latency <= 0 {
		t.Error("latency not accounted")
	}
	if res.Msg.ID != 0 {
		t.Errorf("response message ID = %d, want 0 (RFC 9250 §4.2.1)", res.Msg.ID)
	}
}

func TestStrictRejectsSelfSigned(t *testing.T) {
	f := newFixture(t)
	leaf, err := certs.SelfSigned(certs.LeafOptions{CommonName: "Perfect Privacy"})
	if err != nil {
		t.Fatal(err)
	}
	f.serveDoQ(t, leaf)
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	_, err = f.dial(c)
	if !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v, want ErrAuthFailed", err)
	}
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
	f.serveDoQ(t, leaf)
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Opportunistic}
	conn, err := f.dial(c)
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

// The QUIC handshake costs one round trip against DoT's TCP+TLS two: over
// the same simulated path, DoQ setup must come in strictly cheaper.
func TestSetupCheaperThanDoT(t *testing.T) {
	f := newFixture(t)
	leaf := f.validLeaf(t)
	f.serveDoQ(t, leaf)
	dot.Serve(f.world, doqIP, leaf, f.zone, 0)

	qc := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	qconn, err := f.dial(qc)
	if err != nil {
		t.Fatal(err)
	}
	defer qconn.Close()

	tc := dot.NewClient(f.world, clientIP, certs.Pool(f.ca), dot.Strict)
	tconn, err := tc.Dial(doqIP)
	if err != nil {
		t.Fatal(err)
	}
	defer tconn.Close()

	if qconn.SetupLatency() >= tconn.SetupLatency() {
		t.Errorf("DoQ setup %v not cheaper than DoT setup %v", qconn.SetupLatency(), tconn.SetupLatency())
	}
}

func TestZeroRTTResumption(t *testing.T) {
	f := newFixture(t)
	f.serveDoQ(t, f.validLeaf(t))
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	c.SessionCache = NewSessionCache()

	first, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	if first.Resumed() {
		t.Fatal("first dial resumed with an empty cache")
	}
	first.Close()

	second, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	defer second.Close()
	if !second.Resumed() {
		t.Fatal("second dial did not resume")
	}
	if second.SetupLatency() != 0 {
		t.Errorf("0-RTT setup = %v, want 0", second.SetupLatency())
	}
	if len(second.PeerCertificates()) == 0 {
		t.Error("resumed session lost the cached certificate chain")
	}
	res, err := second.Query("probe.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer over 0-RTT = %v", res.Msg.Answers)
	}
	// The resumed session's whole-lifetime cost is one query flight; the
	// fresh session paid a handshake on top of nothing.
	if second.Elapsed() >= first.Elapsed()+res.Latency {
		t.Errorf("0-RTT session elapsed %v did not undercut 1-RTT handshake %v", second.Elapsed(), first.Elapsed())
	}
}

// A strict client must not ride a ticket minted by an opportunistic
// session whose chain never verified.
func TestStrictDialIgnoresUnverifiedTicket(t *testing.T) {
	f := newFixture(t)
	leaf, err := certs.SelfSigned(certs.LeafOptions{CommonName: "qq.dog"})
	if err != nil {
		t.Fatal(err)
	}
	f.serveDoQ(t, leaf)
	cache := NewSessionCache()

	oc := &Client{Roots: certs.Pool(f.ca), Profile: dot.Opportunistic}
	oc.SessionCache = cache
	conn, err := f.dial(oc)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()

	sc := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	sc.SessionCache = cache
	if _, err := f.dial(sc); !errors.Is(err, ErrAuthFailed) {
		t.Errorf("strict dial over unverified ticket: err = %v, want ErrAuthFailed", err)
	}
}

// Raw-wire checks of the server's RFC 9250 enforcement.
func TestServerEnforcesProtocol(t *testing.T) {
	f := newFixture(t)
	f.serveDoQ(t, f.validLeaf(t))
	ticket := ticketFor(doqIP)
	scid := []byte{1, 2, 3, 4, 5, 6, 7, 8}

	zeroRTT := func(frames ...dnswire.QUICFrame) []byte {
		t.Helper()
		pkt, err := dnswire.AppendQUICHeader(nil, dnswire.QUICHeader{
			Type: dnswire.QUICZeroRTT, Version: dnswire.QUICVersion, DCID: scid, SCID: scid,
		})
		if err != nil {
			t.Fatal(err)
		}
		hello := appendClientHello(nil, clientHello{alpn: helloALPN, ticket: ticket[:]})
		if pkt, err = dnswire.AppendQUICFrame(pkt, dnswire.QUICFrame{Type: dnswire.QUICFrameCrypto, Data: hello}); err != nil {
			t.Fatal(err)
		}
		for _, fr := range frames {
			if pkt, err = dnswire.AppendQUICFrame(pkt, fr); err != nil {
				t.Fatal(err)
			}
		}
		return pkt
	}
	framedQuery := func(id uint16) []byte {
		t.Helper()
		q := dnswire.NewQuery(id, "probe.measure.example.org", dnswire.TypeA)
		framed, err := q.AppendPackTCP(nil)
		if err != nil {
			t.Fatal(err)
		}
		return framed
	}
	wantClose := func(t *testing.T, resp []byte, code uint64) {
		t.Helper()
		_, n, err := dnswire.ParseQUICHeader(resp)
		if err != nil {
			t.Fatal(err)
		}
		fr, _, err := dnswire.ParseQUICFrame(resp[n:])
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type != dnswire.QUICFrameConnCloseApp || fr.ErrorCode != code {
			t.Errorf("frame = %+v, want CONNECTION_CLOSE(app) code %d", fr, code)
		}
	}

	t.Run("NonZeroMessageID", func(t *testing.T) {
		pkt := zeroRTT(dnswire.QUICFrame{Type: dnswire.QUICFrameStream, StreamID: 0, Fin: true, Data: framedQuery(7)})
		resp, _, err := f.world.Exchange(clientIP, doqIP, Port, pkt)
		if err != nil {
			t.Fatal(err)
		}
		wantClose(t, resp, ProtocolError)
	})
	t.Run("ServerInitiatedStreamID", func(t *testing.T) {
		pkt := zeroRTT(dnswire.QUICFrame{Type: dnswire.QUICFrameStream, StreamID: 3, Fin: true, Data: framedQuery(0)})
		resp, _, err := f.world.Exchange(clientIP, doqIP, Port, pkt)
		if err != nil {
			t.Fatal(err)
		}
		wantClose(t, resp, ProtocolError)
	})
	t.Run("BadLengthPrefix", func(t *testing.T) {
		pkt := zeroRTT(dnswire.QUICFrame{Type: dnswire.QUICFrameStream, StreamID: 0, Fin: true, Data: []byte{0xff, 0xff, 1}})
		resp, _, err := f.world.Exchange(clientIP, doqIP, Port, pkt)
		if err != nil {
			t.Fatal(err)
		}
		wantClose(t, resp, ProtocolError)
	})
	t.Run("BadTicket", func(t *testing.T) {
		pkt, err := dnswire.AppendQUICHeader(nil, dnswire.QUICHeader{
			Type: dnswire.QUICZeroRTT, Version: dnswire.QUICVersion, DCID: scid, SCID: scid,
		})
		if err != nil {
			t.Fatal(err)
		}
		hello := appendClientHello(nil, clientHello{alpn: helloALPN, ticket: []byte("stale-ticket")})
		if pkt, err = dnswire.AppendQUICFrame(pkt, dnswire.QUICFrame{Type: dnswire.QUICFrameCrypto, Data: hello}); err != nil {
			t.Fatal(err)
		}
		resp, _, err := f.world.Exchange(clientIP, doqIP, Port, pkt)
		if err != nil {
			t.Fatal(err)
		}
		wantClose(t, resp, ProtocolError)
	})
	t.Run("UnknownConnection", func(t *testing.T) {
		pkt, err := dnswire.AppendQUICHeader(nil, dnswire.QUICHeader{Type: dnswire.QUICOneRTT, DCID: scid})
		if err != nil {
			t.Fatal(err)
		}
		if pkt, err = dnswire.AppendQUICFrame(pkt, dnswire.QUICFrame{Type: dnswire.QUICFramePing}); err != nil {
			t.Fatal(err)
		}
		resp, _, err := f.world.Exchange(clientIP, doqIP, Port, pkt)
		if err != nil {
			t.Fatal(err)
		}
		_, n, err := dnswire.ParseQUICHeader(resp)
		if err != nil {
			t.Fatal(err)
		}
		fr, _, err := dnswire.ParseQUICFrame(resp[n:])
		if err != nil {
			t.Fatal(err)
		}
		if fr.Type != dnswire.QUICFrameConnClose {
			t.Errorf("frame = %+v, want transport CONNECTION_CLOSE", fr)
		}
	})
}

func TestNotDoQServiceRefusesHandshake(t *testing.T) {
	f := newFixture(t)
	// A UDP/853 service that answers every QUIC flight with a transport
	// CONNECTION_CLOSE instead of completing a handshake.
	f.world.RegisterDatagram(doqIP, Port, func(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
		h, _, err := dnswire.ParseQUICHeader(req)
		if err != nil {
			return nil, 0, netsim.ErrBlackhole
		}
		resp, err := appendConnClose(nil, dnswire.QUICHeader{Type: dnswire.QUICHandshake,
			Version: dnswire.QUICVersion, DCID: h.SCID}, dnswire.QUICFrameConnClose, 0, "not doq")
		if err != nil {
			return nil, 0, netsim.ErrBlackhole
		}
		return resp, 0, nil
	})
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Opportunistic}
	if _, err := f.dial(c); !errors.Is(err, ErrClosed) {
		t.Errorf("dial against not-DoQ service: err = %v, want ErrClosed", err)
	}
}

func TestBatchAmortizesRoundTrip(t *testing.T) {
	f := newFixture(t)
	f.serveDoQ(t, f.validLeaf(t))
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	conn, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	single, err := conn.Query("warmup.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}

	names := make([]string, 8)
	for i := range names {
		names[i] = "batch-" + string(rune('a'+i)) + ".measure.example.org"
	}
	out, err := conn.Batch(context.Background(), names, dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(names) {
		t.Fatalf("batch returned %d results, want %d", len(out), len(names))
	}
	for i, res := range out {
		// Results must land in names order despite the server's
		// deterministic response-frame shuffle.
		if got := res.Msg.Question1().Name; got != dnswire.CanonicalName(names[i]) {
			t.Errorf("result %d answers %q, want %q", i, got, names[i])
		}
		if a, ok := res.FirstA(); !ok || a != answerIP {
			t.Errorf("result %d answer = %v", i, res.Msg.Answers)
		}
		if res.Latency >= single.Latency {
			t.Errorf("batched query latency %v not amortized below single %v", res.Latency, single.Latency)
		}
	}
}

// The satellite-mandated storm: 16 goroutines share one connection, each
// issuing queries on its own streams; the demux must route every response
// to the right caller under the race detector, and the virtual clock must
// land on the same total regardless of schedule.
func TestConcurrentStreamStorm(t *testing.T) {
	elapsedOnce := func(t *testing.T) time.Duration {
		f := newFixture(t)
		f.serveDoQ(t, f.validLeaf(t))
		c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
		c.MaxInFlight = 16
		conn, err := f.dial(c)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()

		const goroutines = 16
		const perG = 8
		var wg sync.WaitGroup
		errs := make(chan error, goroutines*perG)
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for q := 0; q < perG; q++ {
					name := "storm-" + string(rune('a'+g)) + "-" + string(rune('a'+q)) + ".measure.example.org"
					res, err := conn.Query(name, dnswire.TypeA)
					if err != nil {
						errs <- err
						return
					}
					if res.Msg.Question1().Name != dnswire.CanonicalName(name) {
						errs <- errors.New("demux cross-wired: got " + res.Msg.Question1().Name + " want " + name)
						return
					}
				}
			}(g)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
		return conn.Elapsed()
	}
	a := elapsedOnce(t)
	b := elapsedOnce(t)
	if a != b {
		t.Errorf("storm elapsed differs across runs: %v vs %v", a, b)
	}
}

// A mid-storm CONNECTION_CLOSE (the server forgets the connection, as a
// restart or population churn would) must fail every in-flight query with
// ErrClosed and leave the connection dead for later callers.
func TestMidStreamCloseFailsAllInFlight(t *testing.T) {
	f := newFixture(t)
	srv := f.serveDoQ(t, f.validLeaf(t))
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	c.MaxInFlight = 16
	conn, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	srv.Reset()

	const goroutines = 16
	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			_, errs[g] = conn.Query("storm.measure.example.org", dnswire.TypeA)
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if !errors.Is(err, ErrClosed) {
			t.Errorf("goroutine %d: err = %v, want ErrClosed", g, err)
		}
	}
	if _, err := conn.Query("after.measure.example.org", dnswire.TypeA); !errors.Is(err, ErrClosed) {
		t.Errorf("post-close query: err = %v, want ErrClosed", err)
	}
}

// Resumption tickets are stateless, so a 0-RTT dial works even after the
// server forgot every connection — the churn-resilience the population
// model leans on.
func TestZeroRTTSurvivesServerReset(t *testing.T) {
	f := newFixture(t)
	srv := f.serveDoQ(t, f.validLeaf(t))
	c := &Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
	c.SessionCache = NewSessionCache()
	first, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()

	srv.Reset()

	conn, err := f.dial(c)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if !conn.Resumed() {
		t.Fatal("dial after reset did not resume")
	}
	res, err := conn.Query("probe.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

// A peer that sends only Initials, each under a new source connection ID,
// must leave at most maxConns connections behind: the table keeps the
// newest registrations and forgets the oldest first.
func TestServerBoundsConnections(t *testing.T) {
	const initials = 100_000
	f := newFixture(t)
	srv := f.serveDoQ(t, f.validLeaf(t))
	var initial []byte
	c := &Client{Roots: certs.Pool(f.ca)}
	conn, err := c.DialVia(context.Background(), doqIP, func(req []byte) ([]byte, time.Duration, error) {
		initial = bytes.Clone(req)
		return srv.handlePacket(clientIP, req)
	})
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	h, n, err := dnswire.ParseQUICHeader(initial)
	if err != nil || h.Type != dnswire.QUICInitial {
		t.Fatalf("captured packet %v (%v), want an Initial", h.Type, err)
	}
	payload := initial[n:]

	cid := func(i int) []byte {
		b := make([]byte, dnswire.QUICCIDLen)
		binary.BigEndian.PutUint64(b, uint64(i)+1)
		return b
	}
	var pkt []byte
	for i := 0; i < initials; i++ {
		h.SCID = cid(i)
		if pkt, err = dnswire.AppendQUICHeader(pkt[:0], h); err != nil {
			t.Fatal(err)
		}
		if _, _, err := srv.handlePacket(clientIP, append(pkt, payload...)); err != nil {
			t.Fatalf("Initial %d: %v", i, err)
		}
	}
	known := func(i int) bool {
		srvCID := cidFor(cid(i))
		_, ok := srv.conns[srv.connKey(clientIP, srvCID[:])]
		return ok
	}
	if got := len(srv.conns); got != maxConns {
		t.Fatalf("%d Initials left %d connections, want the cap %d", initials, got, maxConns)
	}
	if !known(initials-1) || !known(initials-maxConns) {
		t.Error("the newest registrations were evicted")
	}
	if known(initials-maxConns-1) || known(0) {
		t.Error("registrations older than the newest maxConns were kept")
	}
}
