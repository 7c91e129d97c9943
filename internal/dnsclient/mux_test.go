package dnsclient

import (
	"context"
	"fmt"
	"net/netip"
	"sync"
	"testing"

	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// muxEchoAddr derives a per-name answer so tests can prove each pipelined
// query got its own response: q<i>.example.com -> 10.9.<i/256>.<i%256>.
func muxEchoAddr(name string) netip.Addr {
	var i int
	fmt.Sscanf(name, "q%d.", &i)
	return netip.AddrFrom4([4]byte{10, 9, byte(i >> 8), byte(i)})
}

// serveMuxReversed registers a stream server that reads batch-many queries,
// then answers them all in REVERSED order as one coalesced write — the
// worst-case legal reordering under RFC 7766 §7.
func serveMuxReversed(w *netsim.World, batch int) {
	w.RegisterStream(resolverIP, 53, func(conn *netsim.Conn) {
		defer conn.Close()
		for {
			resps := make([][]byte, 0, batch)
			for i := 0; i < batch; i++ {
				msg, err := dnswire.ReadTCP(conn)
				if err != nil {
					return
				}
				m, err := dnswire.Unpack(msg)
				if err != nil {
					return
				}
				resp := m.Reply()
				resp.AddAnswer(m.Question1().Name, 60, dnswire.A{Addr: muxEchoAddr(m.Question1().Name)})
				packed, err := resp.Pack()
				if err != nil {
					return
				}
				resps = append(resps, packed)
			}
			var out []byte
			for i := len(resps) - 1; i >= 0; i-- {
				var err error
				if out, err = dnswire.AppendTCP(out, resps[i]); err != nil {
					return
				}
			}
			if _, err := conn.Write(out); err != nil {
				return
			}
		}
	})
}

func TestMuxBatchReversedResponses(t *testing.T) {
	const batch = 8
	w := newWorld()
	w.JitterFrac = 0
	serveMuxReversed(w, batch)
	conn := dialTCP(t, w)
	defer conn.Close()
	m := conn.Pipeline(batch)
	if m.MaxInFlight() != batch {
		t.Fatalf("MaxInFlight = %d, want %d", m.MaxInFlight(), batch)
	}

	names := make([]string, batch)
	for i := range names {
		names[i] = fmt.Sprintf("q%d.example.com", i)
	}
	before := conn.Elapsed()
	results, err := m.Batch(context.Background(), names, dnswire.TypeA, nil)
	if err != nil {
		t.Fatal(err)
	}
	total := conn.Elapsed() - before
	if len(results) != batch {
		t.Fatalf("got %d results, want %d", len(results), batch)
	}
	for i, r := range results {
		a, ok := r.FirstA()
		if !ok || a != muxEchoAddr(names[i]) {
			t.Errorf("query %d: answer %v, want %v", i, a, muxEchoAddr(names[i]))
		}
		// All queries leave in one segment and all responses arrive in one
		// coalesced segment, so every per-query virtual latency equals the
		// whole batch round trip.
		if r.Latency != total {
			t.Errorf("query %d: latency %v, want batch total %v", i, r.Latency, total)
		}
	}
	if total <= 0 {
		t.Error("batch consumed no virtual time")
	}
}

func TestMuxConcurrentExchange(t *testing.T) {
	const n = 16
	w := newWorld()
	// Server batches responses 4 at a time, reversed, so completions really
	// are out of order relative to issue order.
	serveMuxReversed(w, 4)
	conn := dialTCP(t, w)
	defer conn.Close()
	conn.Pipeline(n)

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("q%d.example.com", i)
			res, err := conn.QueryContext(context.Background(), name, dnswire.TypeA)
			if err != nil {
				errs[i] = err
				return
			}
			if a, ok := res.FirstA(); !ok || a != muxEchoAddr(name) {
				errs[i] = fmt.Errorf("answer %v, want %v", a, muxEchoAddr(name))
			}
			if res.Latency <= 0 {
				errs[i] = fmt.Errorf("latency %v, want > 0", res.Latency)
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
