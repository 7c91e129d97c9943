package netsim

import (
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/geo"
)

var (
	clientIP = netip.MustParseAddr("10.1.0.2")
	serverIP = netip.MustParseAddr("192.0.2.10")
)

func newTestWorld(t *testing.T) *World {
	t.Helper()
	w := NewWorld(1)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US", ASN: 100, ASName: "Client ISP"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL", ASN: 200, ASName: "Hosting"})
	return w
}

// echoHandler echoes everything back.
func echoHandler(conn *Conn) {
	defer conn.Close()
	io.Copy(conn, conn) //nolint:errcheck
}

func TestDialAndEcho(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 7, echoHandler)

	conn, err := w.Dial(clientIP, serverIP, 7)
	if err != nil {
		t.Fatalf("Dial: %v", err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("echo = %q", buf)
	}
}

func TestDialUnknownHostRefused(t *testing.T) {
	w := newTestWorld(t)
	if _, err := w.Dial(clientIP, serverIP, 853); !errors.Is(err, ErrRefused) {
		t.Errorf("err = %v, want ErrRefused", err)
	}
}

func TestVirtualLatencyAccounting(t *testing.T) {
	w := newTestWorld(t)
	w.JitterFrac = 0 // deterministic
	w.RegisterStream(serverIP, 7, echoHandler)

	conn, err := w.Dial(clientIP, serverIP, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))

	rtt := w.pathRTT(clientIP, serverIP)
	if got := conn.Elapsed(); got != rtt {
		t.Errorf("post-dial elapsed = %v, want 1 RTT (%v)", got, rtt)
	}
	// One request/response adds one more RTT (half on the server's read
	// wait, half on ours).
	conn.Write([]byte("x")) //nolint:errcheck
	buf := make([]byte, 1)
	io.ReadFull(conn, buf) //nolint:errcheck
	want := 2 * rtt
	if got := conn.Elapsed(); got < want*9/10 || got > want*11/10 {
		t.Errorf("post-exchange elapsed = %v, want ≈%v", got, want)
	}
}

func TestAddLatency(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 7, func(conn *Conn) {
		conn.AddLatency(42 * time.Millisecond)
		conn.Close()
	})
	conn, err := w.Dial(clientIP, serverIP, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	io.ReadAll(conn) //nolint:errcheck // wait for close
	base := w.pathRTT(clientIP, serverIP)
	if got := conn.Elapsed(); got < base+42*time.Millisecond {
		t.Errorf("elapsed = %v, want at least %v", got, base+42*time.Millisecond)
	}
}

func TestReadDeadline(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 7, func(conn *Conn) {
		// Never respond.
		buf := make([]byte, 16)
		conn.Read(buf) //nolint:errcheck
	})
	conn, err := w.Dial(clientIP, serverIP, 7)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(30 * time.Millisecond))
	_, err = conn.Read(make([]byte, 1))
	var nerr net.Error
	if !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Errorf("read err = %v, want timeout", err)
	}
}

func TestCloseUnblocksPeer(t *testing.T) {
	w := newTestWorld(t)
	done := make(chan error, 1)
	w.RegisterStream(serverIP, 7, func(conn *Conn) {
		_, err := conn.Read(make([]byte, 1))
		done <- err
	})
	conn, err := w.Dial(clientIP, serverIP, 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	select {
	case err := <-done:
		if err != io.EOF {
			t.Errorf("peer read err = %v, want EOF", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("peer read did not unblock")
	}
}

func TestWriteAfterCloseFails(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 7, echoHandler)
	conn, err := w.Dial(clientIP, serverIP, 7)
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	if _, err := conn.Write([]byte("x")); err == nil {
		t.Error("write after close succeeded")
	}
}

// recordingWriter records the size of every Write and fails each one with
// err when it is set.
type recordingWriter struct {
	sizes []int
	err   error
}

func (w *recordingWriter) Write(p []byte) (int, error) {
	w.sizes = append(w.sizes, len(p))
	if w.err != nil {
		return 0, w.err
	}
	return len(p), nil
}

// TestSegmentQueueStaysBounded: a direction whose queue never drains, its
// reader always one segment behind, reuses the slots reads consumed rather
// than growing its backing array.
func TestSegmentQueueStaysBounded(t *testing.T) {
	c, s := Pair(Addr{IP: clientIP, Port: 40000}, Addr{IP: serverIP, Port: 53}, time.Millisecond, nil, 0)
	defer c.Close()
	msg, buf := []byte("x"), make([]byte, 1)
	if _, err := c.Write(msg); err != nil {
		t.Fatal(err)
	}
	for range 10000 {
		if _, err := c.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := cap(s.recv().segs); n > 4 {
		t.Errorf("a backlog of 2 segments holds a backing array of %d", n)
	}
}

// TestWriteToContract: WriteTo hands each segment, or what a partial Read
// left of one, to the writer in one Write, and leaves the reader's clock
// where a Read loop over the same data does, FIN stamp included.
func TestWriteToContract(t *testing.T) {
	const rtt = 20 * time.Millisecond
	const finDelay = 50 * time.Millisecond
	// send writes 40,000, 3 and 1 bytes over a jittered pair, charges the
	// writer finDelay so that the FIN's stamp is the reader's last clock
	// advance, closes, and reads 2 bytes at the other end.
	send := func() *Conn {
		c, s := Pair(Addr{IP: clientIP, Port: 40000}, Addr{IP: serverIP, Port: 53}, rtt, rand.New(rand.NewSource(7)), 0.1)
		for _, n := range []int{40000, 3, 1} {
			if _, err := c.Write(make([]byte, n)); err != nil {
				t.Fatal(err)
			}
		}
		c.AddLatency(finDelay)
		c.Close()
		if n, err := s.Read(make([]byte, 2)); n != 2 || err != nil {
			t.Fatalf("Read = (%d, %v), want (2, nil)", n, err)
		}
		return s
	}

	s := send()
	var w recordingWriter
	if n, err := s.WriteTo(&w); n != 40002 || err != nil {
		t.Fatalf("WriteTo = (%d, %v), want (40002, nil)", n, err)
	}
	if want := []int{39998, 3, 1}; !slices.Equal(w.sizes, want) {
		t.Errorf("writes = %v, want %v", w.sizes, want)
	}

	ref := send()
	buf := make([]byte, 64*1024)
	for {
		if _, err := ref.Read(buf); err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if got, want := s.Elapsed(), ref.Elapsed(); got != want {
		t.Errorf("elapsed after WriteTo = %v, after a Read loop = %v", got, want)
	}
	if got, want := s.Elapsed(), finDelay+rtt/2; got != want {
		t.Errorf("elapsed = %v, want the FIN stamp %v", got, want)
	}
}

// TestWriteToExits: WriteTo delivers the segments that precede an
// injected cut or a failing write, then returns the error Read would
// return, or the writer's.
func TestWriteToExits(t *testing.T) {
	errSink := errors.New("sink full")
	for _, tc := range []struct {
		name  string
		fault DialFault
		segs  []string // the server writes each as one segment
		// deadline, when nonzero, replaces the read deadline.
		deadline time.Time
		w        recordingWriter
		want     []int
		n        int64
		err      error
	}{
		{
			name:  "cut",
			fault: DialFault{CutAfterSegments: 3},
			segs:  []string{"ping", "pong", "pang"},
			want:  []int{4, 4},
			n:     8,
			err:   ErrReset,
		},
		{
			name:     "deadline",
			deadline: time.Now().Add(-time.Second),
			err:      ErrDeadline,
		},
		{
			name: "writer error",
			segs: []string{"abc", "de"},
			w:    recordingWriter{err: errSink},
			want: []int{3},
			err:  errSink,
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := newTestWorld(t)
			w.RegisterStream(serverIP, 80, func(conn *Conn) {
				defer conn.Close()
				for _, s := range tc.segs {
					if _, err := conn.Write([]byte(s)); err != nil {
						return
					}
				}
				conn.Read(make([]byte, 1)) //nolint:errcheck // holds the conn open until the peer closes
			})
			w.SetFaults(&scriptedInjector{stream: tc.fault})
			conn, err := w.Dial(clientIP, serverIP, 80)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			conn.SetDeadline(time.Now().Add(2 * time.Second))
			if !tc.deadline.IsZero() {
				conn.SetReadDeadline(tc.deadline)
			}
			n, err := conn.WriteTo(&tc.w)
			if n != tc.n || !errors.Is(err, tc.err) {
				t.Errorf("WriteTo = (%d, %v), want (%d, %v)", n, err, tc.n, tc.err)
			}
			if !slices.Equal(tc.w.sizes, tc.want) {
				t.Errorf("writes = %v, want %v", tc.w.sizes, tc.want)
			}
		})
	}
}

func TestTLSOverSimulatedNetwork(t *testing.T) {
	w := newTestWorld(t)
	w.JitterFrac = 0
	ca, err := certs.NewCA("Root", true)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{CommonName: "dns.example", IPs: []netip.Addr{serverIP}})
	if err != nil {
		t.Fatal(err)
	}
	cert := leaf.TLSCertificate()
	w.RegisterStream(serverIP, 853, func(conn *Conn) {
		tc := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
		defer tc.Close()
		if err := tc.Handshake(); err != nil {
			return
		}
		io.Copy(tc, tc) //nolint:errcheck
	})

	conn, err := w.Dial(clientIP, serverIP, 853)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	roots := x509.NewCertPool()
	roots.AddCert(ca.Cert)
	tc := tls.Client(conn, &tls.Config{RootCAs: roots, ServerName: "dns.example", Time: func() time.Time { return certs.RefTime }})
	if err := tc.Handshake(); err != nil {
		t.Fatalf("TLS handshake: %v", err)
	}
	if _, err := tc.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(tc, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "ping" {
		t.Errorf("echo over TLS = %q", buf)
	}
	// TLS 1.3 handshake costs about one extra virtual RTT over the dial.
	rtt := w.pathRTT(clientIP, serverIP)
	elapsed := conn.Elapsed()
	if elapsed < 2*rtt || elapsed > 5*rtt {
		t.Errorf("TLS session elapsed = %v, want within [2,5] RTT (%v)", elapsed, rtt)
	}
}

func TestExchange(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterDatagram(serverIP, 53, func(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
		return append([]byte("re:"), req...), 3 * time.Millisecond, nil
	})
	resp, elapsed, err := w.Exchange(clientIP, serverIP, 53, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "re:q" {
		t.Errorf("resp = %q", resp)
	}
	if want := w.pathRTT(clientIP, serverIP) + 3*time.Millisecond; elapsed != want {
		t.Errorf("elapsed = %v, want %v", elapsed, want)
	}
}

func TestExchangeNoService(t *testing.T) {
	w := newTestWorld(t)
	if _, _, err := w.Exchange(clientIP, serverIP, 53, []byte("q")); !errors.Is(err, ErrNoRoute) {
		t.Errorf("err = %v, want ErrNoRoute", err)
	}
}

func TestCensorBlackholesDialsAndDatagrams(t *testing.T) {
	w := newTestWorld(t)
	blocked := netip.MustParseAddr("192.0.2.99")
	w.RegisterStream(blocked, 443, echoHandler)
	w.RegisterDatagram(blocked, 53, func(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
		return []byte("real"), 0, nil
	})
	w.AddPolicy(&Censor{
		Countries: map[string]bool{"US": true},
		BlockIPs:  map[netip.Addr]bool{blocked: true},
		Blackhole: true,
	})

	if _, err := w.Dial(clientIP, blocked, 443); !errors.Is(err, ErrBlackhole) {
		t.Errorf("dial err = %v, want blackhole", err)
	}
	if _, _, err := w.Exchange(clientIP, blocked, 53, []byte("q")); !errors.Is(err, ErrBlackhole) {
		t.Errorf("datagram err = %v, want blackhole", err)
	}
	// A client outside the censored country is unaffected.
	otherClient := netip.MustParseAddr("192.0.2.200")
	if _, err := w.Dial(otherClient, blocked, 443); err != nil {
		t.Errorf("uncensored dial failed: %v", err)
	}
	if resp, _, err := w.Exchange(otherClient, blocked, 53, []byte("q")); err != nil || string(resp) != "real" {
		t.Errorf("uncensored datagram = %q, %v; want the server's answer", resp, err)
	}
}

// The censor's verdict depends on the client's country only for a blocked
// destination, so only that case may pay the geography lookup.
func TestCensorAsksGeoOnlyForBlockedDestinations(t *testing.T) {
	w := NewWorld(1)
	lookups := 0
	w.Geo.SetFallback(func(netip.Addr) (geo.Location, bool) {
		lookups++
		return geo.Location{Country: "CN"}, true
	})
	blocked := netip.MustParseAddr("192.0.2.99")
	censor := &Censor{
		Countries: map[string]bool{"CN": true},
		BlockIPs:  map[netip.Addr]bool{blocked: true},
		Blackhole: true,
	}
	for _, tc := range []struct {
		to          netip.Addr
		want        Action
		wantLookups int
	}{
		{serverIP, ActNext, 0},
		{blocked, ActBlackhole, 1},
	} {
		lookups = 0
		if v := censor.Decide(w, clientIP, tc.to, 443, Stream); v.Action != tc.want {
			t.Errorf("Decide(-> %v) = %v, want %v", tc.to, v.Action, tc.want)
		}
		if lookups != tc.wantLookups {
			t.Errorf("Decide(-> %v) made %d geography lookups, want %d", tc.to, lookups, tc.wantLookups)
		}
	}
}

func TestPortFilter(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 53, echoHandler)
	w.RegisterStream(serverIP, 853, echoHandler)
	w.AddPolicy(&PortFilter{Port: 53}, netip.MustParsePrefix("10.1.0.0/16"))
	if _, err := w.Dial(clientIP, serverIP, 53); !errors.Is(err, ErrRefused) {
		t.Errorf("port 53 err = %v, want refused", err)
	}
	if _, err := w.Dial(clientIP, serverIP, 853); err != nil {
		t.Errorf("port 853 should pass, got %v", err)
	}
}

func TestConflictDevice(t *testing.T) {
	w := newTestWorld(t)
	oneone := netip.MustParseAddr("1.1.1.1")
	w.RegisterStream(oneone, 853, echoHandler) // the real resolver
	w.AddPolicy(&ConflictDevice{
		ConflictIP: oneone,
		Kind:       DeviceRouter,
		OpenPorts:  map[uint16]string{80: "<title>RouterOS admin</title>"},
	}, netip.MustParsePrefix("10.1.0.0/16"))

	// Port 80 serves the device's page.
	conn, err := w.Dial(clientIP, oneone, 80)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	fmt.Fprint(conn, "GET / HTTP/1.0\r\n\r\n")
	page, _ := io.ReadAll(conn)
	if !strings.Contains(string(page), "RouterOS") {
		t.Errorf("page = %q", page)
	}
	// Port 853 is blackholed by the device for affected clients.
	if _, err := w.Dial(clientIP, oneone, 853); !errors.Is(err, ErrBlackhole) {
		t.Errorf("853 err = %v, want blackhole", err)
	}
	// Unaffected clients reach the real resolver.
	other := netip.MustParseAddr("192.0.2.77")
	if _, err := w.Dial(other, oneone, 853); err != nil {
		t.Errorf("unaffected client: %v", err)
	}
}

// TestPolicyOrderNearestNetworkFirst pins AddPolicy's order. The policies
// are added in the reverse of it, so registration order alone would let the
// every-path policy decide every flow.
func TestPolicyOrderNearestNetworkFirst(t *testing.T) {
	w := newTestWorld(t)
	always := func(a Action) PolicyFunc {
		return func(*World, netip.Addr, netip.Addr, uint16, Proto) Verdict { return Verdict{Action: a} }
	}
	elsewhere := 0
	w.AddPolicy(always(ActRedirect))
	w.AddPolicy(always(ActBlackhole), netip.MustParsePrefix("10.1.0.0/16"))
	w.AddPolicy(PolicyFunc(func(*World, netip.Addr, netip.Addr, uint16, Proto) Verdict {
		elsewhere++
		return Verdict{Action: ActRefuse}
	}), netip.MustParsePrefix("10.9.0.0/16"))
	w.AddPolicy(always(ActRefuse), netip.MustParsePrefix("10.1.2.0/24"))
	for _, tc := range []struct {
		from netip.Addr
		want Action
	}{
		{netip.MustParseAddr("10.1.2.3"), ActRefuse},     // the /24 inside the /16
		{netip.MustParseAddr("10.1.9.9"), ActBlackhole},  // the /16 alone
		{netip.MustParseAddr("192.0.2.77"), ActRedirect}, // no client network
	} {
		if v := w.decide(tc.from, serverIP, 443, Stream); v.Action != tc.want {
			t.Errorf("decide(%v) = %v, want %v", tc.from, v.Action, tc.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { w.decide(tc.from, serverIP, 443, Stream) }); allocs != 0 {
			t.Errorf("decide(%v) allocates %v times per call, want 0", tc.from, allocs)
		}
	}
	if elsewhere != 0 {
		t.Errorf("a policy on a network covering no source was consulted %d times", elsewhere)
	}
}

func TestTLSInterceptorMITM(t *testing.T) {
	w := newTestWorld(t)
	w.JitterFrac = 0
	rootCA, err := certs.NewCA("Trusted Root", true)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := rootCA.Issue(certs.LeafOptions{CommonName: "dns.example", IPs: []netip.Addr{serverIP}})
	if err != nil {
		t.Fatal(err)
	}
	cert := leaf.TLSCertificate()
	w.RegisterStream(serverIP, 853, func(conn *Conn) {
		tc := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
		defer tc.Close()
		if tc.Handshake() != nil {
			return
		}
		// Echo one message.
		buf := make([]byte, 64)
		n, err := tc.Read(buf)
		if err != nil {
			return
		}
		tc.Write(buf[:n]) //nolint:errcheck
	})

	dpiCA, err := certs.NewCA("SonicWall Firewall DPI-SSL", false)
	if err != nil {
		t.Fatal(err)
	}
	mitm := NewTLSInterceptor(dpiCA, 853)
	w.AddPolicy(mitm, netip.MustParsePrefix("10.1.0.0/16"))

	conn, err := w.Dial(clientIP, serverIP, 853)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	// Opportunistic client: no verification. The session works end to end
	// but the presented certificate is the forged one.
	tc := tls.Client(conn, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // opportunistic profile
	if err := tc.Handshake(); err != nil {
		t.Fatalf("handshake through MITM: %v", err)
	}
	got := tc.ConnectionState().PeerCertificates[0]
	if got.Issuer.CommonName != "SonicWall Firewall DPI-SSL" {
		t.Errorf("issuer = %q, want DPI CA", got.Issuer.CommonName)
	}
	if got.Subject.CommonName != "dns.example" {
		t.Errorf("subject = %q, want original CN preserved", got.Subject.CommonName)
	}
	if _, err := tc.Write([]byte("query")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(tc, buf); err != nil {
		t.Fatalf("read through MITM: %v", err)
	}
	if string(buf) != "query" {
		t.Errorf("relayed data = %q", buf)
	}

	// Strict client: verification fails, handshake aborts.
	conn2, err := w.Dial(clientIP, serverIP, 853)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	conn2.SetDeadline(time.Now().Add(5 * time.Second))
	roots := x509.NewCertPool()
	roots.AddCert(rootCA.Cert)
	strict := tls.Client(conn2, &tls.Config{RootCAs: roots, ServerName: "dns.example", Time: func() time.Time { return certs.RefTime }})
	if err := strict.Handshake(); err == nil {
		t.Error("strict handshake through MITM unexpectedly succeeded")
	}

	// The proxy records the failed strict handshake asynchronously.
	var sessions []InterceptedSession
	for deadline := time.Now().Add(3 * time.Second); ; {
		sessions = mitm.Sessions()
		if len(sessions) >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(sessions) < 2 {
		t.Fatalf("sessions = %d, want >= 2", len(sessions))
	}
	if !sessions[0].RelayedToOrigin {
		t.Error("opportunistic session not marked relayed")
	}
}

func TestOptOutList(t *testing.T) {
	var o OptOutList
	o.Add(netip.MustParsePrefix("203.0.113.0/24"))
	if !o.Contains(netip.MustParseAddr("203.0.113.7")) {
		t.Error("opt-out address not matched")
	}
	if o.Contains(netip.MustParseAddr("203.0.114.7")) {
		t.Error("non-opted address matched")
	}
}

func TestWorldCloseRefusesDials(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 7, echoHandler)
	w.RegisterStream(serverIP, 853, echoHandler)
	w.RegisterStream(serverIP, 80, echoHandler)
	w.Close()
	if n := w.NumListeners(); n != 0 {
		t.Errorf("NumListeners after Close = %d, want 0", n)
	}
	for _, port := range []uint16{7, 80, 853} {
		if _, err := w.Dial(clientIP, serverIP, port); !errors.Is(err, ErrRefused) {
			t.Errorf("Dial :%d after Close = %v, want ErrRefused", port, err)
		}
	}
	w.Close() // idempotent
	if n := w.NumListeners(); n != 0 {
		t.Errorf("NumListeners after second Close = %d, want 0", n)
	}
}

// TestRegisterStreamStartsNoGoroutine: a stream service is a table entry;
// the dials to it start its handlers, so an idle service holds no
// goroutine.
func TestRegisterStreamStartsNoGoroutine(t *testing.T) {
	w := newTestWorld(t)
	before := settledGoroutines()
	for i := range 100 {
		w.RegisterStream(netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), 853, echoHandler)
	}
	if n := settledGoroutines(); n > before {
		t.Errorf("goroutines after registering 100 services: %d, want %d", n, before)
	}
	for i := range 100 {
		w.CloseService(netip.AddrFrom4([4]byte{192, 0, 2, byte(i)}), 853)
	}
	if n := settledGoroutines(); n > before {
		t.Errorf("goroutines after closing 100 services: %d, want %d", n, before)
	}
}

// settledGoroutines returns the goroutine count once it has held still for
// five polls: the handlers of earlier tests' connections may still be
// unwinding.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for still, deadline := 0, time.Now().Add(5*time.Second); still < 5 && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond) // real-time settle poll in a leak test
		if m := runtime.NumGoroutine(); m != n {
			n, still = m, 0
		} else {
			still++
		}
	}
	return n
}

// mustCA builds an untrusted CA for interception tests.
func mustCA(t *testing.T) *certs.CA {
	t.Helper()
	ca, err := certs.NewCA("Test DPI CA", false)
	if err != nil {
		t.Fatal(err)
	}
	return ca
}
