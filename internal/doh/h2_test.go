package doh

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
)

// muxClient dials multiplexed sessions of up to limit streams.
func (f *fixture) muxClient(limit int) *Client {
	c := f.client()
	c.MaxInFlight = limit
	return c
}

func TestH2Negotiation(t *testing.T) {
	const limit = 4
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	conn, err := f.dial(t, f.muxClient(limit), f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Only the pipelined HTTP/2 session batches, up to its stream limit.
	names := make([]string, limit+1)
	for i := range names {
		names[i] = fmt.Sprintf("neg%d.measure.example.org", i)
	}
	if _, err := conn.Batch(context.Background(), names[:limit], dnswire.TypeA, nil); err != nil {
		t.Fatalf("batch of %d: %v", limit, err)
	}
	if _, err := conn.Batch(context.Background(), names, dnswire.TypeA, nil); err == nil {
		t.Errorf("batch of %d passed the limit of %d", len(names), limit)
	}
	res, err := conn.Query("probe-h2.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Latency <= 0 {
		t.Errorf("latency = %v, want > 0", res.Latency)
	}
}

func TestH2PostQuery(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient(dnsclient.DefaultMaxInFlight)
	c.Method = POST
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	res, err := conn.Query("probe-h2p.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

func TestH2SerialClientUnaffected(t *testing.T) {
	// A client without MaxInFlight offers no ALPN and must still get plain
	// HTTP/1.1 from the upgraded server, on a session that never pipelines.
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.client()
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Batch(context.Background(), []string{"b.measure.example.org"}, dnswire.TypeA, nil); !errors.Is(err, dnsclient.ErrSerialBatch) {
		t.Fatalf("Batch on a serial session: err = %v, want ErrSerialBatch", err)
	}
	if _, err := conn.Query("serial.measure.example.org", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
}

func TestH2BatchDeterministicLatencies(t *testing.T) {
	const batch = 8
	f := newFixture(t)
	f.world.JitterFrac = 0
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient(batch)
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	names := make([]string, batch)
	for i := range names {
		names[i] = fmt.Sprintf("h2b%d.measure.example.org", i)
	}
	run := func() ([]dnsclient.Result, time.Duration) {
		before := conn.Elapsed()
		results, err := conn.Batch(context.Background(), names, dnswire.TypeA, nil)
		if err != nil {
			t.Fatal(err)
		}
		return results, conn.Elapsed() - before
	}
	results, total := run()
	if len(results) != batch {
		t.Fatalf("got %d results, want %d", len(results), batch)
	}
	for i, r := range results {
		if a, ok := r.FirstA(); !ok || a != answerIP {
			t.Errorf("query %d: answer %v", i, r.Msg.Answers)
		}
		// One request segment out, one coalesced response segment back:
		// every stream's latency equals the batch round trip.
		if r.Latency != total {
			t.Errorf("query %d: latency %v, want batch total %v", i, r.Latency, total)
		}
	}
	// A second batch on the same session must behave identically (slot and
	// buffer recycling paths).
	results2, total2 := run()
	if total2 != total {
		t.Errorf("second batch total %v, want %v (jitter disabled)", total2, total)
	}
	for i, r := range results2 {
		if r.Latency != total2 {
			t.Errorf("second batch query %d: latency %v, want %v", i, r.Latency, total2)
		}
	}
}

func TestH2ConcurrentExchange(t *testing.T) {
	const n = 16
	f := newFixture(t)
	var mu sync.Mutex
	seen := make(map[string]int)
	f.serve(t, &Server{Handler: dnsserver.HandlerFunc(func(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
		mu.Lock()
		seen[dnswire.CanonicalName(req.Question1().Name)]++
		mu.Unlock()
		return f.zone.ServeDNS(remote, req)
	})})
	c := f.muxClient(n)
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			name := fmt.Sprintf("h2c%d.measure.example.org", i)
			res, err := conn.QueryContext(context.Background(), name, dnswire.TypeA)
			if err != nil {
				errs[i] = err
				return
			}
			if a, ok := res.FirstA(); !ok || a != answerIP {
				errs[i] = fmt.Errorf("answer %v", res.Msg.Answers)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Errorf("query %d: %v", i, err)
		}
	}
	// Every uniquely named query must have reached the handler exactly once.
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h2c%d.measure.example.org.", i)
		if seen[name] != 1 {
			t.Errorf("zone saw %q %d times, want 1", name, seen[name])
		}
	}
}

func TestH2ErrorStatusPerStream(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.muxClient(dnsclient.DefaultMaxInFlight)
	tmpl := Template{Host: f.tmpl.Host, Path: "/wrong-path"}
	conn, err := f.dial(t, c, tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Query("err.measure.example.org", dnswire.TypeA); !errors.Is(err, ErrHTTPStatus) {
		t.Errorf("err = %v, want ErrHTTPStatus", err)
	}
	// The session survives a per-stream error; only that stream failed.
	conn2, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn2.Close()
	if _, err := conn2.Query("ok.measure.example.org", dnswire.TypeA); err != nil {
		t.Errorf("good-path query after error: %v", err)
	}
}

// h2Frames concatenates frames for the reader tests.
func h2Frames(t testing.TB, frames ...[]byte) []byte {
	t.Helper()
	var out []byte
	for _, f := range frames {
		out = append(out, f...)
	}
	return out
}

func h2Frame(t testing.TB, typ dnswire.H2FrameType, flags byte, sid uint32, payload []byte) []byte {
	t.Helper()
	f, err := dnswire.AppendH2Frame(nil, typ, flags, sid, payload)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// dnsReply is a packed answer to an A query for name.
func dnsReply(t testing.TB, name string) []byte {
	t.Helper()
	resp := dnswire.NewQuery(0, name, dnswire.TypeA).Reply()
	resp.AddAnswer(name, 60, dnswire.A{Addr: answerIP})
	packed, err := resp.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return packed
}

// h2Reply is a complete 200 reply on sid: HEADERS, then the DATA frame
// that ends the stream.
func h2Reply(t testing.TB, sid uint32, name string) []byte {
	t.Helper()
	return h2Frames(t,
		h2Frame(t, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid, dnswire.AppendHpackLiteral(nil, ":status", "200")),
		h2Frame(t, dnswire.H2FrameData, dnswire.H2FlagEndStream, sid, dnsReply(t, name)))
}

func newH2Reader(r io.Reader, limit int) *h2Framing {
	return &h2Framing{br: bufio.NewReader(r), limit: limit, streams: make(map[uint32]*h2Stream, limit)}
}

// A hostile server cannot grow the client's reassembly state: frames on
// streams the client never opened, or has abandoned, create none, and what
// abandoned streams left behind is swept before the table outgrows the
// in-flight limit.
func TestH2ReassemblyStateBounded(t *testing.T) {
	const limit = 4
	open := map[uint32]bool{}
	awaited := func(sid uint32) bool { return open[sid] }
	headersOnly := dnswire.AppendHpackLiteral(nil, ":status", "200")

	t.Run("never opened", func(t *testing.T) {
		var in []byte
		for sid := uint32(1); sid < 200; sid += 2 {
			in = append(in, h2Frame(t, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid, headersOnly)...)
			in = append(in, h2Frame(t, dnswire.H2FrameData, 0, sid, []byte("junk"))...)
		}
		f := newH2Reader(bytes.NewReader(in), limit)
		if r, _, err := f.ReadReply(nil, awaited); err != io.EOF {
			t.Fatalf("ReadReply = %+v, %v; want only EOF", r, err)
		}
		if len(f.streams) != 0 {
			t.Errorf("%d streams hold reassembly state, want 0", len(f.streams))
		}
	})

	t.Run("abandoned", func(t *testing.T) {
		// Every stream is in flight when its HEADERS arrive and abandoned
		// right after; END_STREAM never comes.
		f := newH2Reader(bytes.NewReader(nil), limit)
		for sid := uint32(1); sid < 200; sid += 2 {
			open[sid] = true
			in := h2Frame(t, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid, headersOnly)
			f.br.Reset(bytes.NewReader(in))
			if _, _, err := f.ReadReply(nil, awaited); err != io.EOF {
				t.Fatalf("stream %d: err = %v, want EOF", sid, err)
			}
			delete(open, sid)
			if len(f.streams) > limit {
				t.Fatalf("after stream %d: %d streams hold state, limit %d", sid, len(f.streams), limit)
			}
		}
	})

	t.Run("completed", func(t *testing.T) {
		open[1] = true
		defer delete(open, 1)
		in := h2Frames(t,
			h2Frame(t, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, 9, headersOnly),
			h2Reply(t, 1, "done.example.org"))
		f := newH2Reader(bytes.NewReader(in), limit)
		r, _, err := f.ReadReply(nil, awaited)
		if err != nil || r.Tag != 1 || r.Err != nil || r.Msg == nil {
			t.Fatalf("ReadReply = %+v, %v; want stream 1's reply", r, err)
		}
		if len(f.streams) != 0 {
			t.Errorf("%d streams hold state after the reply, want 0", len(f.streams))
		}
	})

	t.Run("oversized", func(t *testing.T) {
		// Stream 1's body passes maxBody on its fourth 16 KiB DATA frame
		// and END_STREAM never comes; stream 3 completes after it.
		open[1], open[3] = true, true
		defer delete(open, 3)
		in := h2Frame(t, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, 1, headersOnly)
		chunk := make([]byte, dnswire.MaxH2FrameLen)
		for i := 0; i < 8; i++ {
			in = append(in, h2Frame(t, dnswire.H2FrameData, 0, 1, chunk)...)
		}
		in = append(in, h2Reply(t, 3, "after.example.org")...)
		f := newH2Reader(bytes.NewReader(in), limit)
		r, _, err := f.ReadReply(nil, awaited)
		if err != nil || r.Tag != 1 || !errors.Is(r.Err, errBodyTooLarge) {
			t.Fatalf("ReadReply = %+v, %v; want stream 1's body-limit error", r, err)
		}
		if len(f.streams) != 0 {
			t.Errorf("%d streams hold state after the limit error, want 0", len(f.streams))
		}
		// The engine has delivered stream 1's failure: it is no longer
		// awaited, so its remaining DATA frames are ignored.
		delete(open, 1)
		r, _, err = f.ReadReply(nil, awaited)
		if err != nil || r.Tag != 3 || r.Err != nil || r.Msg == nil {
			t.Fatalf("ReadReply = %+v, %v; want stream 3's reply", r, err)
		}
	})
}
