package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
)

var (
	clientIP = netip.MustParseAddr("10.1.0.2")
	serverIP = netip.MustParseAddr("192.0.2.100")
	answerIP = netip.MustParseAddr("203.0.113.1")
)

// fixture deploys one resolver address speaking every transport the package
// adapts: clear-text DNS on 53, DoT on 853, DoH on 443, DoQ on UDP 853.
type fixture struct {
	world *netsim.World
	ca    *certs.CA
	zone  *dnsserver.Zone
	doq   *doq.Server
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := netsim.NewWorld(17)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL"})
	ca, err := certs.NewCA("DoE Root", true)
	if err != nil {
		t.Fatal(err)
	}
	z := dnsserver.NewZone("measure.example.org")
	z.WildcardA = answerIP

	dnsserver.Serve(w, serverIP, z)
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: "dns.provider.example",
		DNSNames:   []string{"dns.provider.example"},
		IPs:        []netip.Addr{serverIP},
	})
	if err != nil {
		t.Fatal(err)
	}
	dot.Serve(w, serverIP, leaf, z, 0)
	doh.Serve(w, serverIP, leaf, &doh.Server{Handler: z})
	doqSrv := doq.Serve(w, serverIP, leaf, z, 0)
	return &fixture{world: w, ca: ca, zone: z, doq: doqSrv}
}

func (f *fixture) client(t *testing.T, opts ...Option) *Client {
	t.Helper()
	return New(f.world, clientIP, certs.Pool(f.ca), opts...)
}

func query(name string) *dnswire.Message {
	return dnswire.NewQuery(0, name, dnswire.TypeA)
}

func checkAnswer(t *testing.T, m *dnswire.Message, err error, transport string) {
	t.Helper()
	if err != nil {
		t.Fatalf("%s: %v", transport, err)
	}
	if a, ok := m.FirstA(); !ok || a != answerIP {
		t.Errorf("%s answer = %v, want %v", transport, m.Answers, answerIP)
	}
}

func TestEveryTransportAnswersThroughExchange(t *testing.T) {
	f := newFixture(t)
	c := f.client(t)
	ctx := context.Background()
	ep := Endpoint{Addr: serverIP, Template: doh.Template{Host: "dns.provider.example", Path: "/dns-query"}}
	for _, p := range []Proto{ProtoTCP, ProtoDoT, ProtoDoH, ProtoDoQ} {
		m, err := c.Transport(p, ep).Exchange(ctx, query(p.String()+".measure.example.org"))
		checkAnswer(t, m, err, p.String())
	}
}

func TestSessionAccountsSetupAndElapsed(t *testing.T) {
	f := newFixture(t)
	c := f.client(t, WithProfile(dot.Strict))
	ctx := context.Background()
	sess, err := c.Dial(ctx, ProtoDoT, Endpoint{Addr: serverIP})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if sess.SetupLatency() <= 0 {
		t.Error("setup latency not accounted")
	}
	before := sess.Elapsed()
	m, err := sess.Exchange(ctx, query("s.measure.example.org"))
	checkAnswer(t, m, err, "dot session")
	if sess.Elapsed() <= before {
		t.Error("exchange consumed no virtual time")
	}
}

// TestReuseAmortizesSetup compares §4.3's two arms: the second query on a
// reused Dial session costs only its own round trip, while every query of a
// Transport pays TCP+TLS setup on a fresh session.
func TestReuseAmortizesSetup(t *testing.T) {
	f := newFixture(t)
	ctx := context.Background()
	ep := Endpoint{Addr: serverIP}

	reused, err := f.client(t).Dial(ctx, ProtoDoT, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer reused.Close()
	if _, err := reused.Exchange(ctx, query("r.measure.example.org")); err != nil {
		t.Fatal(err)
	}
	start := reused.Elapsed()
	if _, err := reused.Exchange(ctx, query("r.measure.example.org")); err != nil {
		t.Fatal(err)
	}
	onConn := reused.Elapsed() - start // second exchange: no setup in the delta

	fresh := f.client(t).Transport(ProtoDoT, ep)
	for i := 0; i < 2; i++ {
		if _, err := fresh.Exchange(ctx, query("f.measure.example.org")); err != nil {
			t.Fatal(err)
		}
	}
	perDial := fresh.LastLatency() // every exchange pays TCP+TLS setup

	if perDial <= onConn {
		t.Errorf("no-reuse latency %v should exceed reused on-connection latency %v", perDial, onConn)
	}
}

func TestStrictProfileOptionRejectsUntrustedServer(t *testing.T) {
	f := newFixture(t)
	// A client whose trust store does not contain the serving CA: the
	// Strict profile must refuse, Opportunistic must proceed.
	otherCA, err := certs.NewCA("Unrelated Root", true)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	strict := New(f.world, clientIP, certs.Pool(otherCA), WithProfile(dot.Strict))
	if _, err := strict.Dial(ctx, ProtoDoT, Endpoint{Addr: serverIP}); !errors.Is(err, dot.ErrAuthFailed) {
		t.Errorf("strict dial err = %v, want ErrAuthFailed", err)
	}
	opp := New(f.world, clientIP, certs.Pool(otherCA), WithProfile(dot.Opportunistic))
	m, err := opp.Transport(ProtoDoT, Endpoint{Addr: serverIP}).Exchange(ctx, query("o.measure.example.org"))
	checkAnswer(t, m, err, "opportunistic dot")
}

func TestExchangeHonoursCancelledContext(t *testing.T) {
	f := newFixture(t)
	c := f.client(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ep := Endpoint{Addr: serverIP, Template: doh.Template{Host: "dns.provider.example", Path: "/dns-query"}}
	for _, p := range []Proto{ProtoTCP, ProtoDoT, ProtoDoH} {
		if _, err := c.Transport(p, ep).Exchange(ctx, query("c.measure.example.org")); !errors.Is(err, context.Canceled) {
			t.Errorf("%v: err = %v, want context.Canceled", p, err)
		}
	}
}

func TestQuestionRejectsEmptyMessage(t *testing.T) {
	if _, _, err := Question(&dnswire.Message{}); !errors.Is(err, ErrNoQuestion) {
		t.Errorf("err = %v, want ErrNoQuestion", err)
	}
	if _, _, err := Question(nil); !errors.Is(err, ErrNoQuestion) {
		t.Errorf("nil message err = %v, want ErrNoQuestion", err)
	}
}

// recordingDialer records every raw dial and fails it with errDial.
type recordingDialer struct{ calls []string }

var errDial = errors.New("recording dialer: no route")

func (d *recordingDialer) DialStream(addr netip.Addr, port uint16) (*netsim.Conn, error) {
	d.calls = append(d.calls, fmt.Sprintf("stream %v:%d", addr, port))
	return nil, errDial
}

func (d *recordingDialer) DialDatagram(addr netip.Addr, port uint16) (func(req []byte) ([]byte, time.Duration, error), error) {
	d.calls = append(d.calls, fmt.Sprintf("datagram %v:%d", addr, port))
	return nil, errDial
}

// TestDialRoutesEveryProtocolThroughDialer pins the seam: each protocol
// opens exactly one raw transport at the endpoint's address — a stream to
// 53, 853 or 443, or a datagram path to 853 — and the Dialer's error comes
// back unwrapped.
func TestDialRoutesEveryProtocolThroughDialer(t *testing.T) {
	d := &recordingDialer{}
	c := NewVia(d, nil)
	for _, tc := range []struct {
		p    Proto
		want string
	}{
		{ProtoTCP, "stream 192.0.2.100:53"},
		{ProtoDoT, "stream 192.0.2.100:853"},
		{ProtoDoH, "stream 192.0.2.100:443"},
		{ProtoDoQ, "datagram 192.0.2.100:853"},
	} {
		d.calls = nil
		if _, err := c.Dial(context.Background(), tc.p, Endpoint{Addr: serverIP}); err != errDial {
			t.Errorf("%v: err = %v, want the dialer's error unwrapped", tc.p, err)
		}
		if len(d.calls) != 1 || d.calls[0] != tc.want {
			t.Errorf("%v: dials = %q, want [%s]", tc.p, d.calls, tc.want)
		}
	}
}

// TestExitNodeClientCompletesEveryProtocol runs every protocol through a
// proxy exit node — serially and as pipelined/multiplexed batches — and
// checks that the relay legs are charged: each exit-node session's setup
// exceeds the same session's setup dialed directly.
func TestExitNodeClientCompletesEveryProtocol(t *testing.T) {
	f := newFixture(t)
	network := proxy.NewNetwork(f.world, "testrack", netip.MustParseAddr("10.1.0.1"))
	defer network.Shutdown()
	network.AddNode(proxy.ExitNode{ID: "exit", Addr: netip.MustParseAddr("10.1.7.7"), Country: "US", Lifetime: time.Hour})
	exit := proxy.ExitDialer{Network: network, From: clientIP, NodeID: "exit"}
	ep := Endpoint{Addr: serverIP, Template: doh.Template{Host: "dns.provider.example", Path: "/dns-query"}}
	ctx := context.Background()
	for _, inflight := range []int{0, 4} {
		for _, p := range []Proto{ProtoTCP, ProtoDoT, ProtoDoH, ProtoDoQ} {
			direct, err := f.client(t, WithMaxInFlight(inflight)).Dial(ctx, p, ep)
			if err != nil {
				t.Fatalf("%v direct: %v", p, err)
			}
			direct.Close()
			sess, err := NewVia(exit, certs.Pool(f.ca), WithMaxInFlight(inflight)).Dial(ctx, p, ep)
			if err != nil {
				t.Fatalf("%v via exit (inflight %d): %v", p, inflight, err)
			}
			if sess.SetupLatency() <= direct.SetupLatency() {
				t.Errorf("%v via exit: setup %v not above direct %v", p, sess.SetupLatency(), direct.SetupLatency())
			}
			if inflight == 0 {
				m, err := sess.Exchange(ctx, query(p.String()+".measure.example.org"))
				checkAnswer(t, m, err, p.String()+" via exit")
			} else {
				names := []string{"b1.measure.example.org", "b2.measure.example.org", "b3.measure.example.org", "b4.measure.example.org"}
				res, err := sess.Batch(ctx, names, dnswire.TypeA, nil)
				if err != nil || len(res) != len(names) {
					t.Fatalf("%v batch via exit: %d results, %v", p, len(res), err)
				}
				for _, r := range res {
					checkAnswer(t, r.Msg, nil, p.String()+" batch via exit")
				}
			}
			sess.Close()
		}
	}
}

// A serial stream session has no burst to coalesce into: Batch on a TCP,
// DoT or DoH session dialed without WithMaxInFlight fails with
// dnsclient.ErrSerialBatch, and the session still answers Exchanges.
func TestSerialSessionRefusesBatch(t *testing.T) {
	f := newFixture(t)
	ep := Endpoint{Addr: serverIP, Template: doh.Template{Host: "dns.provider.example", Path: "/dns-query"}}
	ctx := context.Background()
	for _, p := range []Proto{ProtoTCP, ProtoDoT, ProtoDoH} {
		sess, err := f.client(t).Dial(ctx, p, ep)
		if err != nil {
			t.Fatalf("%v: %v", p, err)
		}
		if _, err := sess.Batch(ctx, []string{"b.measure.example.org"}, dnswire.TypeA, nil); !errors.Is(err, dnsclient.ErrSerialBatch) {
			t.Errorf("%v: Batch err = %v, want ErrSerialBatch", p, err)
		}
		m, err := sess.Exchange(ctx, query(p.String()+".measure.example.org"))
		checkAnswer(t, m, err, p.String())
		sess.Close()
	}
}
