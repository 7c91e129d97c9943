package netsim

import (
	"crypto/tls"
	"io"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"dnsencryption.info/doe/internal/geo"
)

func TestCloseDuringTLSHandshakeFailsCleanly(t *testing.T) {
	w := newTestWorld(t)
	// Server that accepts and immediately closes: the client's TLS
	// handshake must error, not hang.
	w.RegisterStream(serverIP, 853, func(conn *Conn) { conn.Close() })
	conn, err := w.Dial(clientIP, serverIP, 853)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	tc := tls.Client(conn, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // test
	if err := tc.Handshake(); err == nil {
		t.Error("handshake against closing server succeeded")
	}
}

func TestDialAfterServiceClosedRefused(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	if _, err := w.Dial(clientIP, serverIP, 80); err != nil {
		t.Fatal(err)
	}
	w.CloseService(serverIP, 80)
	if _, err := w.Dial(clientIP, serverIP, 80); err == nil {
		t.Error("dial to closed service succeeded")
	}
}

func TestPastDeadlineFailsImmediately(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, func(conn *Conn) { select {} })
	conn, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(-time.Second))
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Error("read past deadline succeeded")
	}
	if time.Since(start) > time.Second {
		t.Error("past deadline did not fail promptly")
	}
}

func TestHalfCloseSemantics(t *testing.T) {
	w := newTestWorld(t)
	got := make(chan []byte, 1)
	w.RegisterStream(serverIP, 80, func(conn *Conn) {
		data, _ := io.ReadAll(conn)
		got <- data
		conn.Close()
	})
	conn, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	conn.Write([]byte("last words")) //nolint:errcheck
	conn.Close()
	select {
	case data := <-got:
		if string(data) != "last words" {
			t.Errorf("server received %q", data)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server never finished reading")
	}
}

func TestQuickVirtualClockMonotone(t *testing.T) {
	// Property: any interleaving of writes, reads and AddLatency calls
	// never moves a connection's clock backwards.
	f := func(ops []uint8) bool {
		client, server := Pair(
			Addr{IP: netip.MustParseAddr("10.0.0.1"), Port: 1},
			Addr{IP: netip.MustParseAddr("10.0.0.2"), Port: 2},
			10*time.Millisecond, rand.New(rand.NewSource(1)), 0.1)
		defer client.Close()
		defer server.Close()
		last := time.Duration(0)
		buf := make([]byte, 8)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				client.Write([]byte{1}) //nolint:errcheck
			case 1:
				server.Write([]byte{2}) //nolint:errcheck
			case 2:
				client.SetReadDeadline(time.Now().Add(time.Millisecond))
				client.Read(buf) //nolint:errcheck
			case 3:
				client.AddLatency(time.Duration(op) * time.Microsecond)
			}
			now := client.Elapsed()
			if now < last {
				return false
			}
			last = now
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestQuickDatagramDeterministicLatency(t *testing.T) {
	// Property: datagram exchanges between fixed endpoints always report
	// the same virtual latency (RTT + handler proc), regardless of count.
	w := NewWorld(9)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "JP"})
	w.RegisterDatagram(serverIP, 53, func(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
		return req, 2 * time.Millisecond, nil
	})
	var first time.Duration
	for i := 0; i < 50; i++ {
		_, elapsed, err := w.Exchange(clientIP, serverIP, 53, []byte{byte(i)})
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = elapsed
		} else if elapsed != first {
			t.Fatalf("exchange %d latency %v != %v", i, elapsed, first)
		}
	}
}

func TestInterceptorSkipsUnmatchedPorts(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	ca := mustCA(t)
	mitm := NewTLSInterceptor(ca, 853)
	w.AddPolicy(mitm, netip.MustParsePrefix("10.1.0.0/16"))
	conn, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(time.Second))
	conn.Write([]byte("plain")) //nolint:errcheck
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "plain" {
		t.Fatalf("port-80 traffic disturbed: %q, %v", buf, err)
	}
	if len(mitm.Sessions()) != 0 {
		t.Error("interceptor recorded sessions for unmatched port")
	}
}

func TestInterceptorOriginUnreachable(t *testing.T) {
	w := newTestWorld(t)
	ca := mustCA(t)
	mitm := NewTLSInterceptor(ca, 853)
	w.AddPolicy(mitm, netip.MustParsePrefix("10.1.0.0/16"))
	// No origin service exists: the intercepted dial connects (the MITM
	// accepted) but the TLS handshake must fail, not hang.
	conn, err := w.Dial(clientIP, serverIP, 853)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	tc := tls.Client(conn, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // test
	if err := tc.Handshake(); err == nil {
		t.Error("handshake through MITM with dead origin succeeded")
	}
}
