package resolver

import (
	"context"
	"errors"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
)

func TestBackoffSchedule(t *testing.T) {
	p := RetryPolicy{Attempts: 4, Backoff: 50 * time.Millisecond}
	for attempt, want := range map[int]time.Duration{
		1: 0,
		2: 50 * time.Millisecond,
		3: 100 * time.Millisecond,
		4: 200 * time.Millisecond,
	} {
		if got := p.backoffFor(attempt); got != want {
			t.Errorf("backoffFor(%d) = %v, want %v", attempt, got, want)
		}
	}
	if got := (RetryPolicy{Attempts: 3}).backoffFor(2); got != 0 {
		t.Errorf("zero-base backoff = %v, want 0", got)
	}
}

// dyingSession answers exchanges until its fuse runs out, then fails every
// call with dieWith, emulating a reused connection the peer tore down.
type dyingSession struct {
	fuse    int
	dieWith error
	elapsed time.Duration
	closed  bool
}

func (s *dyingSession) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	s.elapsed += time.Millisecond
	if s.fuse <= 0 {
		return nil, s.dieWith
	}
	s.fuse--
	return &dnswire.Message{}, nil
}

func (s *dyingSession) Close() error                { s.closed = true; return nil }
func (s *dyingSession) SetupLatency() time.Duration { return time.Millisecond }
func (s *dyingSession) Elapsed() time.Duration      { return s.elapsed }
func (s *dyingSession) Batch(context.Context, []string, dnswire.Type, []dnsclient.Result) ([]dnsclient.Result, error) {
	return nil, dnsclient.ErrSerialBatch
}

// dyingTransport returns a reuse Transport whose first session dies with
// dieWith after fuse exchanges; every redial gets a fresh, immortal session.
func dyingTransport(retry RetryPolicy, fuse int, dieWith error) (*Transport, *[]*dyingSession) {
	var sessions []*dyingSession
	tr := newTransport(Options{Reuse: true, Retry: retry}, "tcp", func(ctx context.Context) (Session, error) {
		s := &dyingSession{fuse: fuse, dieWith: dieWith}
		if len(sessions) > 0 {
			s.fuse = 1 << 20
		}
		sessions = append(sessions, s)
		return s, nil
	})
	return tr, &sessions
}

func TestSessionDeathWrapsErrSessionClosed(t *testing.T) {
	tr, sessions := dyingTransport(RetryPolicy{}, 1, io.EOF)
	ctx := context.Background()
	q := query("die.measure.example.org")

	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	_, err := tr.Exchange(ctx, q)
	if !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("death err = %v, want errors.Is ErrSessionClosed", err)
	}
	if !errors.Is(err, io.EOF) {
		t.Fatalf("death err = %v, must keep wrapping the underlying io.EOF", err)
	}
	if !(*sessions)[0].closed {
		t.Error("dead session not closed")
	}
	// The transport dropped the corpse: the next Exchange redials and works.
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("exchange after death: %v", err)
	}
	got := tr.Stats()
	want := RetryStats{Attempts: 3, Redials: 1, HardFailures: 1}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
}

func TestRetryRedialsThroughSessionDeath(t *testing.T) {
	tr, sessions := dyingTransport(RetryPolicy{Attempts: 2}, 1, io.ErrUnexpectedEOF)
	ctx := context.Background()
	q := query("redial.measure.example.org")

	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	// Second exchange: attempt 1 dies with the session, attempt 2 redials
	// and succeeds — invisible to the caller.
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("exchange across session death: %v", err)
	}
	got := tr.Stats()
	want := RetryStats{Attempts: 3, Retries: 1, Redials: 1, Recovered: 1}
	if got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if len(*sessions) != 2 {
		t.Errorf("sessions dialed = %d, want 2", len(*sessions))
	}
}

func TestCloseResetsRedialCounting(t *testing.T) {
	tr, _ := dyingTransport(RetryPolicy{}, 1<<20, io.EOF)
	ctx := context.Background()
	q := query("close.measure.example.org")
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatal(err)
	}
	tr.Close()
	// Dialing after an explicit Close is a fresh start, not a recovery.
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatal(err)
	}
	if got := tr.Stats().Redials; got != 0 {
		t.Errorf("redials after explicit Close = %d, want 0", got)
	}
}

// onceCutInjector truncates the first stream dial per tuple before any
// server data (a cut TLS handshake) and lets everything else through.
type onceCutInjector struct {
	mu   sync.Mutex
	seen map[string]bool
}

func (i *onceCutInjector) StreamFault(from, to netip.Addr, port uint16) netsim.DialFault {
	i.mu.Lock()
	defer i.mu.Unlock()
	if i.seen == nil {
		i.seen = make(map[string]bool)
	}
	k := from.String() + "|" + to.String()
	if !i.seen[k] {
		i.seen[k] = true
		return netsim.DialFault{CutAfterSegments: 1}
	}
	return netsim.DialFault{}
}

func (i *onceCutInjector) DatagramFault(from, to netip.Addr, port uint16) netsim.DatagramFault {
	return netsim.DatagramFault{}
}

func TestRetryRecoversTruncatedTLSHandshake(t *testing.T) {
	f := newFixture(t)
	f.world.SetFaults(&onceCutInjector{})
	ctx := context.Background()

	tr := f.client(t, WithRetry(RetryPolicy{Attempts: 2})).DoT(serverIP)
	defer tr.Close()
	m, err := tr.Exchange(ctx, query("cut.measure.example.org"))
	checkAnswer(t, m, err, "dot through truncated handshake")
	got := tr.Stats()
	if got.Retries != 1 || got.Recovered != 1 || got.HardFailures != 0 {
		t.Errorf("stats = %+v, want one recovered retry", got)
	}
}

// TestTransportTelemetry checks that an instrumented Exchange records
// spans (xchg + dial children, retry events) and per-protocol metrics
// when — and only when — the context carries a recorder.
func TestTransportTelemetry(t *testing.T) {
	rec := obs.NewRecorder("study")
	ctx := obs.WithRecorder(context.Background(), rec)
	tr, _ := dyingTransport(RetryPolicy{Attempts: 2, Backoff: 10 * time.Millisecond}, 1, io.EOF)
	q := query("telemetry.measure.example.org")
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("first exchange: %v", err)
	}
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("second exchange (recovered): %v", err)
	}

	m := rec.Metrics()
	checks := map[string]int64{
		"resolver_attempts_total":  3,
		"resolver_retries_total":   1,
		"resolver_recovered_total": 1,
		"resolver_redials_total":   1,
	}
	for name, want := range checks {
		if got := m.Counter(name, "proto", "tcp").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Counter("resolver_exchanges_total", "proto", "tcp", "outcome", "ok").Value(); got != 2 {
		t.Errorf("ok exchanges = %d, want 2", got)
	}
	if got := m.Sketch("resolver_setup_latency", "proto", "tcp").Count(); got != 2 {
		t.Errorf("setup latency observations = %d, want 2 (initial dial + redial)", got)
	}

	var paths []string
	var retryEvents int
	for _, r := range rec.Records() {
		paths = append(paths, r.Path)
		for _, ev := range r.Events {
			if ev == "retry:2" {
				retryEvents++
			}
		}
	}
	joined := strings.Join(paths, "\n")
	for _, want := range []string{"study/xchg:tcp", "study/xchg:tcp/dial", "study/xchg:tcp#2", "study/xchg:tcp#2/dial"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing span %q in:\n%s", want, joined)
		}
	}
	if retryEvents != 1 {
		t.Errorf("retry events = %d, want 1", retryEvents)
	}

	// Without a recorder nothing is recorded and nothing panics.
	tr2, _ := dyingTransport(RetryPolicy{}, 1<<20, io.EOF)
	if _, err := tr2.Exchange(context.Background(), q); err != nil {
		t.Fatalf("uninstrumented exchange: %v", err)
	}
}
