package netsim

import (
	"crypto/tls"
	"errors"
	"io"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
)

// scriptedInjector returns a fixed fault per dial/exchange and counts how
// often it was consulted.
type scriptedInjector struct {
	mu      sync.Mutex
	stream  DialFault
	dgram   DatagramFault
	streams int
	dgrams  int
}

func (s *scriptedInjector) StreamFault(from, to netip.Addr, port uint16) DialFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.streams++
	return s.stream
}

func (s *scriptedInjector) DatagramFault(from, to netip.Addr, port uint16) DatagramFault {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.dgrams++
	return s.dgram
}

func TestFaultDropLooksLikeBlackhole(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	w.SetFaults(&scriptedInjector{stream: DialFault{Drop: true}})
	_, err := w.Dial(clientIP, serverIP, 80)
	if !errors.Is(err, ErrBlackhole) {
		t.Fatalf("err = %v, want ErrBlackhole", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("dropped SYN must look like a timeout, got %v", err)
	}
}

func TestFaultRefuseLooksLikeRST(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	w.SetFaults(&scriptedInjector{stream: DialFault{Refuse: true}})
	if _, err := w.Dial(clientIP, serverIP, 80); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want ErrRefused", err)
	}
}

func TestFaultStallChargesVirtualLatency(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	clean, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer clean.Close()
	base := clean.Elapsed()

	stall := 75 * time.Millisecond
	w.SetFaults(&scriptedInjector{stream: DialFault{ExtraLatency: stall}})
	slow, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if got := slow.Elapsed(); got != base+stall {
		t.Errorf("stalled dial elapsed = %v, want %v + %v", got, base, stall)
	}
}

func TestFaultCutBeforeFirstSegmentTruncatesHandshake(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	w.SetFaults(&scriptedInjector{stream: DialFault{CutAfterSegments: 1}})
	conn, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	// The echo comes back as the first segment — the cut replaces it.
	if _, err := conn.Read(make([]byte, 8)); !errors.Is(err, ErrReset) {
		t.Fatalf("read = %v, want ErrReset before any server data", err)
	}
	// Reads keep failing with ErrReset, like a real RST-closed socket.
	if _, err := conn.Read(make([]byte, 8)); !errors.Is(err, ErrReset) {
		t.Fatalf("second read = %v, want ErrReset", err)
	}
}

func TestFaultCutAgainstTLSFailsHandshake(t *testing.T) {
	w := newTestWorld(t)
	ca := mustCA(t)
	leaf, err := ca.Issue(certs.LeafOptions{CommonName: "dns.example", IPs: []netip.Addr{serverIP}})
	if err != nil {
		t.Fatal(err)
	}
	tlsCert := leaf.TLSCertificate()
	w.RegisterStream(serverIP, 853, func(conn *Conn) {
		defer conn.Close()
		tc := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{tlsCert}}) //nolint:gosec // test
		tc.Handshake()                                                                //nolint:errcheck
	})
	w.SetFaults(&scriptedInjector{stream: DialFault{CutAfterSegments: 1}})
	conn, err := w.Dial(clientIP, serverIP, 853)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	tc := tls.Client(conn, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // test
	if err := tc.Handshake(); !errors.Is(err, ErrReset) {
		t.Fatalf("handshake err = %v, want ErrReset", err)
	}
}

func TestFaultMidStreamResetAfterNSegments(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	w.SetFaults(&scriptedInjector{stream: DialFault{CutAfterSegments: 3}})
	conn, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 4)
	// Segments 1 and 2 deliver; the third read hits the RST.
	for i := 0; i < 2; i++ {
		if _, err := conn.Write([]byte("ping")); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatalf("segment %d: %v", i+1, err)
		}
	}
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(buf); !errors.Is(err, ErrReset) {
		t.Fatalf("third segment read = %v, want ErrReset", err)
	}
}

// TestFaultResetUnblocksPeerHandler: the injected RST closes both
// directions, so the server handler's blocking read returns EOF instead of
// leaking a goroutine.
func TestFaultResetUnblocksPeerHandler(t *testing.T) {
	w := newTestWorld(t)
	handlerDone := make(chan error, 1)
	w.RegisterStream(serverIP, 80, func(conn *Conn) {
		defer conn.Close()
		if _, err := conn.Write([]byte("banner")); err != nil {
			handlerDone <- err
			return
		}
		_, err := conn.Read(make([]byte, 8)) // blocks until reset fires
		handlerDone <- err
	})
	w.SetFaults(&scriptedInjector{stream: DialFault{CutAfterSegments: 1}})
	conn, err := w.Dial(clientIP, serverIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.Read(make([]byte, 8)); !errors.Is(err, ErrReset) {
		t.Fatalf("client read = %v, want ErrReset", err)
	}
	select {
	case err := <-handlerDone:
		if err == nil {
			t.Error("handler read succeeded after reset")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("server handler still blocked after reset")
	}
}

func TestPolicyVerdictWinsOverFaults(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	w.AddPolicy(PolicyFunc(func(w *World, from, to netip.Addr, port uint16, proto Proto) Verdict {
		return Verdict{Action: ActRefuse}
	}))
	inj := &scriptedInjector{stream: DialFault{Drop: true}}
	w.SetFaults(inj)
	if _, err := w.Dial(clientIP, serverIP, 80); !errors.Is(err, ErrRefused) {
		t.Fatalf("err = %v, want the policy's ErrRefused, not the fault's blackhole", err)
	}
	if inj.streams != 0 {
		t.Errorf("injector consulted %d times behind a refusing policy, want 0", inj.streams)
	}
}

func TestDatagramFaults(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterDatagram(serverIP, 53, func(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
		return req, time.Millisecond, nil
	})
	_, clean, err := w.Exchange(clientIP, serverIP, 53, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}

	w.SetFaults(&scriptedInjector{dgram: DatagramFault{Drop: true}})
	if _, _, err := w.Exchange(clientIP, serverIP, 53, []byte("q")); !errors.Is(err, ErrBlackhole) {
		t.Fatalf("dropped datagram err = %v, want ErrBlackhole", err)
	}

	stall := 30 * time.Millisecond
	w.SetFaults(&scriptedInjector{dgram: DatagramFault{ExtraLatency: stall}})
	_, slow, err := w.Exchange(clientIP, serverIP, 53, []byte("q"))
	if err != nil {
		t.Fatal(err)
	}
	if slow != clean+stall {
		t.Errorf("stalled exchange = %v, want %v + %v", slow, clean, stall)
	}
}

// TestFaultedDialsLeakNoGoroutines is the runtime leak assertion: a burst of
// faulted dials — drops, refusals, handshake cuts, mid-stream resets — must
// leave the goroutine count where it started once the connections close.
func TestFaultedDialsLeakNoGoroutines(t *testing.T) {
	w := newTestWorld(t)
	w.RegisterStream(serverIP, 80, echoHandler)
	before := runtime.NumGoroutine()

	for round, fault := range []DialFault{
		{Drop: true},
		{Refuse: true},
		{CutAfterSegments: 1},
		{CutAfterSegments: 2},
	} {
		w.SetFaults(&scriptedInjector{stream: fault})
		for i := 0; i < 50; i++ {
			conn, err := w.Dial(clientIP, serverIP, 80)
			if err != nil {
				continue
			}
			conn.SetDeadline(time.Now().Add(time.Second))
			conn.Write([]byte("ping")) //nolint:errcheck
			conn.Read(make([]byte, 4)) //nolint:errcheck
			conn.Close()
		}
		_ = round
	}

	// Handlers unwind asynchronously after Close; give them a settle window.
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond) // real-time settle poll in a leak test
	}
	t.Errorf("goroutines: %d before, %d after faulted dial burst", before, runtime.NumGoroutine())
}
