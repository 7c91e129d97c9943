package dnsclient

import (
	"context"
	"errors"
	"net/netip"
	"sync/atomic"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	clientIP   = netip.MustParseAddr("10.1.0.2")
	resolverIP = netip.MustParseAddr("192.0.2.53")
	fixedIP    = netip.MustParseAddr("203.0.113.7")
)

// fixedHandler answers any A query with fixedIP, at the wire level.
func fixedHandler(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
	m, err := dnswire.Unpack(req)
	if err != nil {
		return nil, 0, err
	}
	resp := m.Reply()
	resp.AddAnswer(m.Question1().Name, 60, dnswire.A{Addr: fixedIP})
	packed, err := resp.Pack()
	return packed, time.Millisecond, err
}

func newWorld() *netsim.World {
	w := netsim.NewWorld(3)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "DE"})
	return w
}

func TestQueryUDP(t *testing.T) {
	w := newWorld()
	w.RegisterDatagram(resolverIP, 53, fixedHandler)
	c := New(w, clientIP)
	res, err := c.QueryUDPContext(context.Background(), resolverIP, "example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != fixedIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Rcode() != dnswire.RcodeSuccess {
		t.Errorf("rcode = %v", res.Rcode())
	}
}

func TestQueryUDPNoService(t *testing.T) {
	w := newWorld()
	c := New(w, clientIP)
	if _, err := c.QueryUDPContext(context.Background(), resolverIP, "example.com", dnswire.TypeA); err == nil {
		t.Error("query against empty world succeeded")
	}
}

func TestQueryUDPIDMismatchRejected(t *testing.T) {
	w := newWorld()
	w.RegisterDatagram(resolverIP, 53, func(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
		resp, proc, err := fixedHandler(from, req)
		if err == nil {
			resp[0] ^= 0xFF // corrupt the transaction ID
		}
		return resp, proc, err
	})
	c := New(w, clientIP)
	_, err := c.QueryUDPContext(context.Background(), resolverIP, "example.com", dnswire.TypeA)
	if !errors.Is(err, ErrIDMismatch) {
		t.Errorf("err = %v, want ErrIDMismatch", err)
	}
}

// dialTCP opens a clear-text DNS session to resolverIP:53.
func dialTCP(t *testing.T, w *netsim.World) *TCPConn {
	t.Helper()
	raw, err := w.Dial(clientIP, resolverIP, 53)
	if err != nil {
		t.Fatal(err)
	}
	return TCPFromConn(raw)
}

func serveTCPFixed(w *netsim.World) {
	w.RegisterStream(resolverIP, 53, func(conn *netsim.Conn) {
		defer conn.Close()
		for {
			msg, err := dnswire.ReadTCP(conn)
			if err != nil {
				return
			}
			resp, _, err := fixedHandler(conn.RemoteAddr().(netsim.Addr).IP, msg)
			if err != nil {
				return
			}
			if err := dnswire.WriteTCP(conn, resp); err != nil {
				return
			}
		}
	})
}

func TestQueryTCP(t *testing.T) {
	w := newWorld()
	serveTCPFixed(w)
	conn := dialTCP(t, w)
	defer conn.Close()
	res, err := conn.QueryContext(context.Background(), "example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != fixedIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

func TestTCPConnReuseLatency(t *testing.T) {
	w := newWorld()
	w.JitterFrac = 0
	serveTCPFixed(w)
	conn := dialTCP(t, w)
	defer conn.Close()
	if conn.SetupLatency() <= 0 {
		t.Error("setup latency not accounted")
	}
	r1, err := conn.Query("a.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := conn.Query("b.example.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	// Reused-connection query ≈ 1 RTT, strictly below setup + query.
	if r2.Latency >= conn.SetupLatency()+r1.Latency {
		t.Errorf("reused latency %v >= setup+first %v", r2.Latency, conn.SetupLatency()+r1.Latency)
	}
}

func TestQueryAfterCloseFails(t *testing.T) {
	w := newWorld()
	serveTCPFixed(w)
	conn := dialTCP(t, w)
	conn.Close()
	if _, err := conn.Query("x.example.com", dnswire.TypeA); !errors.Is(err, ErrClosed) {
		t.Errorf("err = %v, want ErrClosed", err)
	}
}

// A framing error leaves a serial session's stream in an unknown state, so
// it ends the session: later queries, Batch and Pipeline fail with ErrClosed
// and the cause, and nothing more is written.
func TestSerialSessionEndsOnFramingError(t *testing.T) {
	w := newWorld()
	var queries atomic.Int32
	done := make(chan struct{})
	w.RegisterStream(resolverIP, 53, func(conn *netsim.Conn) {
		defer close(done)
		defer conn.Close()
		for {
			msg, err := dnswire.ReadTCP(conn)
			if err != nil {
				return
			}
			resp, _, err := fixedHandler(conn.RemoteAddr().(netsim.Addr).IP, msg)
			if err != nil {
				return
			}
			// The first reply is a frame that does not unpack, then a
			// well-formed one.
			if queries.Add(1) == 1 && dnswire.WriteTCP(conn, []byte{0xde, 0xad}) != nil {
				return
			}
			if dnswire.WriteTCP(conn, resp) != nil {
				return
			}
		}
	})
	conn := dialTCP(t, w)
	_, cause := conn.Query("first.example.com", dnswire.TypeA)
	if cause == nil {
		t.Fatal("first query succeeded on a reply that does not unpack")
	}
	_, err := conn.Query("second.example.com", dnswire.TypeA)
	if !errors.Is(err, ErrClosed) || !errors.Is(err, cause) {
		t.Errorf("second query: err = %v, want ErrClosed wrapping %v", err, cause)
	}
	if _, err := conn.Batch(context.Background(), []string{"third.example.com"}, dnswire.TypeA, nil); !errors.Is(err, ErrClosed) {
		t.Errorf("Batch: err = %v, want ErrClosed", err)
	}
	if m := conn.Pipeline(4); m != nil {
		t.Error("Pipeline upgraded a dead session")
	}
	if _, err := conn.Query("fourth.example.com", dnswire.TypeA); !errors.Is(err, ErrClosed) {
		t.Errorf("query after Pipeline: err = %v, want ErrClosed", err)
	}
	conn.Close()
	<-done
	if n := queries.Load(); n != 1 {
		t.Errorf("server saw %d queries, want 1", n)
	}
}

func TestFirstANoAnswer(t *testing.T) {
	res := &Result{Msg: dnswire.NewQuery(1, "x.example", dnswire.TypeA).Reply()}
	if _, ok := res.FirstA(); ok {
		t.Error("FirstA found an answer in empty response")
	}
}
