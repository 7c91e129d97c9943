package resolver

import (
	"context"
	"crypto/tls"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/netsim"
)

// pipeAddr derives a per-name answer so the pipelining tests can prove each
// concurrent query got its own response: p<i>. -> 10.9.<i/256>.<i%256>.
func pipeAddr(name string) netip.Addr {
	var i int
	fmt.Sscanf(name, "p%d.", &i)
	return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
}

// serveDoTReversed registers a DoT server that collects batch queries and
// answers them all in REVERSED order as one coalesced write — the worst-case
// legal reordering under RFC 7766 §7 — so the pipelined session's ID demux
// is what routes each response to its caller.
func serveDoTReversed(t *testing.T, w *netsim.World, ca *certs.CA, batch int) {
	t.Helper()
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: "dns.provider.example",
		DNSNames:   []string{"dns.provider.example"},
		IPs:        []netip.Addr{serverIP},
	})
	if err != nil {
		t.Fatal(err)
	}
	cert := leaf.TLSCertificate()
	w.RegisterStream(serverIP, dot.Port, func(conn *netsim.Conn) {
		defer conn.Close()
		tc := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
		if tc.Handshake() != nil {
			return
		}
		for {
			resps := make([][]byte, 0, batch)
			for i := 0; i < batch; i++ {
				msg, err := dnswire.ReadTCP(tc)
				if err != nil {
					return
				}
				m, err := dnswire.Unpack(msg)
				if err != nil {
					return
				}
				resp := m.Reply()
				resp.AddAnswer(m.Question1().Name, 60, dnswire.A{Addr: pipeAddr(m.Question1().Name)})
				packed, err := resp.Pack()
				if err != nil {
					return
				}
				resps = append(resps, packed)
			}
			var out []byte
			for i := len(resps) - 1; i >= 0; i-- {
				framed, err := dnswire.AppendTCP(out, resps[i])
				if err != nil {
					return
				}
				out = framed
			}
			if _, err := tc.Write(out); err != nil {
				return
			}
		}
	})
}

// TestPipelinedDoTTransportConcurrentExchange has two halves. On a
// pipelined Dial session, 16 concurrent Exchanges meet a server that
// answers in reversed order, so per-query answers prove the demux. On one
// Transport, 16 concurrent Exchanges each dial their own session while
// LastLatency and Stats are read concurrently: the race regression test
// for the Transport's atomic accounting.
func TestPipelinedDoTTransportConcurrentExchange(t *testing.T) {
	const n = 16
	ctx := context.Background()
	// world serves DoT answering each batch of queries in reversed order
	// and returns a client that pipelines up to n queries per session.
	world := func(t *testing.T, batch int) *Client {
		w := netsim.NewWorld(17)
		ca, err := certs.NewCA("DoE Root", true)
		if err != nil {
			t.Fatal(err)
		}
		serveDoTReversed(t, w, ca, batch)
		return New(w, clientIP, certs.Pool(ca), WithProfile(dot.Strict), WithMaxInFlight(n))
	}
	// exchangeAll runs n concurrent exchanges of distinct names and checks
	// each got its own answer.
	exchangeAll := func(t *testing.T, ex Exchanger) {
		var wg sync.WaitGroup
		errs := make([]error, n)
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				name := fmt.Sprintf("p%d.measure.example.org", i)
				m, err := ex.Exchange(ctx, query(name))
				if err != nil {
					errs[i] = err
					return
				}
				if a, ok := m.FirstA(); !ok || a != pipeAddr(name) {
					errs[i] = fmt.Errorf("answer %v, want %v", m.Answers, pipeAddr(name))
				}
			}(i)
		}
		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Errorf("query %d: %v", i, err)
			}
		}
	}

	t.Run("session", func(t *testing.T) {
		sess, err := world(t, n).Dial(ctx, ProtoDoT, Endpoint{Addr: serverIP})
		if err != nil {
			t.Fatal(err)
		}
		defer sess.Close()
		before := sess.Elapsed()
		exchangeAll(t, sess)
		if sess.Elapsed() <= before {
			t.Error("concurrent exchanges consumed no virtual time")
		}
	})

	t.Run("transport", func(t *testing.T) {
		// Each fresh session carries one query, so the server answers
		// batches of one.
		tr := world(t, 1).Transport(ProtoDoT, Endpoint{Addr: serverIP})
		stop := make(chan struct{})
		var readers sync.WaitGroup
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = tr.LastLatency()
					_ = tr.Stats()
				}
			}
		}()
		exchangeAll(t, tr)
		close(stop)
		readers.Wait()
		if tr.LastLatency() <= 0 {
			t.Error("no virtual latency recorded for concurrent exchanges")
		}
		if st := tr.Stats(); st != (RetryStats{Attempts: n}) {
			t.Errorf("stats = %+v, want %d attempts and no retries or failures", st, n)
		}
	})
}

// TestMultiplexedDoHSessionConcurrentExchange proves Dial wires MaxInFlight
// into HTTP/2 stream multiplexing for DoH sessions.
func TestMultiplexedDoHSessionConcurrentExchange(t *testing.T) {
	const n = 16
	f := newFixture(t)
	ctx := context.Background()
	c := f.client(t, WithMaxInFlight(n))
	tmpl := doh.Template{Host: "dns.provider.example", Path: "/dns-query"}
	sess, err := c.Dial(ctx, ProtoDoH, Endpoint{Addr: serverIP, Template: tmpl})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	before := sess.Elapsed()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := sess.Exchange(ctx, query(fmt.Sprintf("h%d.measure.example.org", i)))
			if err != nil {
				errs[i] = err
				return
			}
			if a, ok := m.FirstA(); !ok || a != answerIP {
				errs[i] = fmt.Errorf("answer %v", m.Answers)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	if sess.Elapsed() <= before {
		t.Error("concurrent exchanges consumed no virtual time")
	}
}

// cutInjector resets connections to port in place of the Nth segment the
// client would receive; other flows are clean.
type cutInjector struct {
	port     uint16
	segments int
}

func (c cutInjector) StreamFault(from, to netip.Addr, port uint16) netsim.DialFault {
	if port == c.port {
		return netsim.DialFault{CutAfterSegments: c.segments}
	}
	return netsim.DialFault{}
}

func (c cutInjector) DatagramFault(from, to netip.Addr, port uint16) netsim.DatagramFault {
	return netsim.DatagramFault{}
}

// TestMidStreamResetFailsAllInFlight injects a connection reset in place of
// the first post-setup segment of a multiplexed Dial session, over both
// framings of the engine (DoT's length prefixes, DoH's HTTP/2 streams):
// every concurrent Exchange must fail with the reset — seen by the reader,
// or, by a query written after the reset closed the conn, as a closed
// pipe.
func TestMidStreamResetFailsAllInFlight(t *testing.T) {
	const n = 16
	ctx := context.Background()
	tmpl := doh.Template{Host: "dns.provider.example", Path: "/dns-query"}
	for _, p := range []Proto{ProtoDoT, ProtoDoH} {
		t.Run(p.String(), func(t *testing.T) {
			ep := Endpoint{Addr: serverIP, Template: tmpl}
			// Session setup (TLS, and h2's SETTINGS exchange) consumes a
			// server-dependent number of inbound segments; probe for the
			// smallest cut point that lets the dial finish, so the reset
			// lands exactly on the first segment carrying DNS data. Worlds
			// are rebuilt per probe, so the fault history starts fresh.
			var sess Session
			for k := 2; k < 64 && sess == nil; k++ {
				f := newFixture(t)
				f.world.SetFaults(cutInjector{port: ports[p], segments: k})
				sess, _ = f.client(t, WithMaxInFlight(n)).Dial(ctx, p, ep)
			}
			if sess == nil {
				t.Fatalf("no cut point lets the %v setup complete", p)
			}
			defer sess.Close()

			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = sess.Exchange(ctx, query(fmt.Sprintf("rst%d.measure.example.org", i)))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if !errors.Is(err, netsim.ErrReset) && !errors.Is(err, io.ErrClosedPipe) {
					t.Errorf("query %d: err = %v, want the mid-stream reset", i, err)
				}
			}
		})
	}
}

// A query that cannot be framed fails alone: the next query on the same
// Dial session succeeds, serial or multiplexed, on every stream transport.
func TestFramingErrorFailsOnlyItsQuery(t *testing.T) {
	ctx := context.Background()
	tmpl := doh.Template{Host: "dns.provider.example", Path: "/dns-query"}
	bad := strings.Repeat("a", 70) + ".measure.example.org" // a label over 63 octets
	for _, p := range []Proto{ProtoTCP, ProtoDoT, ProtoDoH} {
		for _, inflight := range []int{0, 4} {
			t.Run(fmt.Sprintf("%v/inflight=%d", p, inflight), func(t *testing.T) {
				f := newFixture(t)
				sess, err := f.client(t, WithMaxInFlight(inflight)).Dial(ctx, p, Endpoint{Addr: serverIP, Template: tmpl})
				if err != nil {
					t.Fatal(err)
				}
				defer sess.Close()
				if _, err := sess.Exchange(ctx, query(bad)); err == nil {
					t.Fatal("a 70-octet label was framed")
				}
				m, err := sess.Exchange(ctx, query("good.measure.example.org"))
				checkAnswer(t, m, err, p.String())
			})
		}
	}
}

// A DoQ session the server has forgotten must fail every concurrent
// in-flight exchange with doq.ErrClosed, and nothing redials it. A
// Transport does not notice the reset: each Exchange dials a fresh
// session, 0-RTT from the client's cache, whose stateless ticket survives
// the server's reset.
func TestDoQSessionDeathSurfacesAsSessionClosed(t *testing.T) {
	const n = 8
	f := newFixture(t)
	ctx := context.Background()
	c := f.client(t, WithMaxInFlight(n))
	sess, err := c.Dial(ctx, ProtoDoQ, Endpoint{Addr: serverIP})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	if _, err := sess.Exchange(ctx, query("pre.measure.example.org")); err != nil {
		t.Fatal(err)
	}
	f.doq.Reset()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = sess.Exchange(ctx, query(fmt.Sprintf("q%d.measure.example.org", i)))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, doq.ErrClosed) {
			t.Errorf("query %d: err = %v, want doq.ErrClosed", i, err)
		}
	}

	tr := c.Transport(ProtoDoQ, Endpoint{Addr: serverIP})
	if _, err := tr.Exchange(ctx, query("warm.measure.example.org")); err != nil {
		t.Fatal(err)
	}
	f.doq.Reset()
	m, err := tr.Exchange(ctx, query("after.measure.example.org"))
	checkAnswer(t, m, err, "doq after reset")
	if st := tr.Stats(); st != (RetryStats{Attempts: 2}) {
		t.Errorf("stats = %+v, want 2 attempts and no retries", st)
	}
}

func TestProtoString(t *testing.T) {
	for p, want := range map[Proto]string{ProtoTCP: "tcp", ProtoDoT: "dot", ProtoDoH: "doh", ProtoDoQ: "doq", Proto(9): "proto(9)", Proto(-1): "proto(-1)"} {
		if got := p.String(); got != want {
			t.Errorf("Proto(%d).String() = %q, want %q", int(p), got, want)
		}
	}
}

func TestDialRejectsUnknownProto(t *testing.T) {
	f := newFixture(t)
	if _, err := f.client(t).Dial(context.Background(), Proto(9), Endpoint{Addr: serverIP}); err == nil {
		t.Error("Dial with unknown proto succeeded")
	}
}

// TestPipelinedTCPSessionViaDial covers the remaining Dial arm: a clear-text
// TCP session with pipelining enabled still answers every concurrent query.
func TestPipelinedTCPSessionViaDial(t *testing.T) {
	const n = 8
	f := newFixture(t)
	ctx := context.Background()
	sess, err := f.client(t, WithMaxInFlight(n)).Dial(ctx, ProtoTCP, Endpoint{Addr: serverIP})
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			m, err := sess.Exchange(ctx, query(fmt.Sprintf("t%d.measure.example.org", i)))
			if err != nil {
				errs[i] = err
				return
			}
			if a, ok := m.FirstA(); !ok || a != answerIP {
				errs[i] = fmt.Errorf("answer %v", m.Answers)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
}
