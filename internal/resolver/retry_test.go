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

// fakeSession answers its exchanges, or fails every one with dieWith,
// emulating a connection the peer tore down. Each exchange costs 1 ms of
// virtual time on top of 1 ms of setup.
type fakeSession struct {
	dieWith error
	elapsed time.Duration
	closed  bool
}

func (s *fakeSession) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	s.elapsed += time.Millisecond
	if s.dieWith != nil {
		return nil, s.dieWith
	}
	return &dnswire.Message{}, nil
}

func (s *fakeSession) Close() error                { s.closed = true; return nil }
func (s *fakeSession) SetupLatency() time.Duration { return time.Millisecond }
func (s *fakeSession) Elapsed() time.Duration      { return time.Millisecond + s.elapsed }
func (s *fakeSession) Batch(context.Context, []string, dnswire.Type, []dnsclient.Result) ([]dnsclient.Result, error) {
	return nil, dnsclient.ErrSerialBatch
}

// fakeTransport returns a Transport whose first fails dialed sessions die
// with dieWith on their exchange; every later dial gets a working session.
func fakeTransport(retry RetryPolicy, fails int, dieWith error) (*Transport, *[]*fakeSession) {
	var sessions []*fakeSession
	tr := newTransport(retry, "tcp", func(ctx context.Context) (Session, error) {
		s := &fakeSession{}
		if len(sessions) < fails {
			s.dieWith = dieWith
		}
		sessions = append(sessions, s)
		return s, nil
	})
	return tr, &sessions
}

// TestRetryRedialsThroughSessionDeath pins the fresh-session contract: each
// attempt dials its own session and closes it, dead or not, so a retry
// after a session death runs on a new connection, and without a budget the
// death's cause comes back as it is.
func TestRetryRedialsThroughSessionDeath(t *testing.T) {
	ctx := context.Background()
	q := query("redial.measure.example.org")

	tr, sessions := fakeTransport(RetryPolicy{Attempts: 2}, 1, io.ErrUnexpectedEOF)
	// Attempt 1 dies with its session, attempt 2 dials afresh and succeeds
	// — invisible to the caller.
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("exchange across session death: %v", err)
	}
	if got, want := tr.Stats(), (RetryStats{Attempts: 2, Retries: 1, Recovered: 1}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	// Dead session (setup 1 ms + 1 ms) plus the one that answered (2 ms).
	if got := tr.LastLatency(); got != 4*time.Millisecond {
		t.Errorf("latency = %v, want 4ms: both sessions' setup and exchange", got)
	}
	if len(*sessions) != 2 {
		t.Fatalf("sessions dialed = %d, want 2", len(*sessions))
	}
	for i, s := range *sessions {
		if !s.closed {
			t.Errorf("session %d left open", i)
		}
	}

	bare, sessions := fakeTransport(RetryPolicy{}, 1, io.EOF)
	if _, err := bare.Exchange(ctx, q); !errors.Is(err, io.EOF) {
		t.Fatalf("death err = %v, want the session's io.EOF", err)
	}
	if _, err := bare.Exchange(ctx, q); err != nil {
		t.Fatalf("exchange after a death: %v", err)
	}
	if got, want := bare.Stats(), (RetryStats{Attempts: 2, HardFailures: 1}); got != want {
		t.Errorf("stats = %+v, want %+v", got, want)
	}
	if len(*sessions) != 2 || !(*sessions)[0].closed {
		t.Errorf("dead session not closed, or not replaced: %d dialed", len(*sessions))
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

	tr := f.client(t, WithRetry(RetryPolicy{Attempts: 2})).Transport(ProtoDoT, Endpoint{Addr: serverIP})
	m, err := tr.Exchange(ctx, query("cut.measure.example.org"))
	checkAnswer(t, m, err, "dot through truncated handshake")
	got := tr.Stats()
	if got.Retries != 1 || got.Recovered != 1 || got.HardFailures != 0 {
		t.Errorf("stats = %+v, want one recovered retry", got)
	}
}

// TestTransportTelemetry checks that an instrumented Exchange records
// spans (xchg + one dial child per attempt, retry events) and
// per-protocol metrics when — and only when — the context carries a
// recorder.
func TestTransportTelemetry(t *testing.T) {
	rec := obs.NewRecorder("study")
	ctx := obs.WithRecorder(context.Background(), rec)
	tr, _ := fakeTransport(RetryPolicy{Attempts: 2, Backoff: 10 * time.Millisecond}, 1, io.EOF)
	q := query("telemetry.measure.example.org")
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("first exchange (recovered): %v", err)
	}
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("second exchange: %v", err)
	}

	m := rec.Metrics()
	checks := map[string]int64{
		"resolver_attempts_total":  3,
		"resolver_retries_total":   1,
		"resolver_recovered_total": 1,
	}
	for name, want := range checks {
		if got := m.Counter(name, "proto", "tcp").Value(); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	if got := m.Counter("resolver_exchanges_total", "proto", "tcp", "outcome", "ok").Value(); got != 2 {
		t.Errorf("ok exchanges = %d, want 2", got)
	}
	if got := m.Sketch("resolver_setup_latency", "proto", "tcp").Count(); got != 3 {
		t.Errorf("setup latency observations = %d, want 3 (one dial per attempt)", got)
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
	for _, want := range []string{"study/xchg:tcp", "study/xchg:tcp/dial", "study/xchg:tcp/dial#2", "study/xchg:tcp#2", "study/xchg:tcp#2/dial"} {
		if !strings.Contains(joined, want) {
			t.Errorf("trace missing span %q in:\n%s", want, joined)
		}
	}
	if retryEvents != 1 {
		t.Errorf("retry events = %d, want 1", retryEvents)
	}

	// Without a recorder nothing is recorded and nothing panics.
	tr2, _ := fakeTransport(RetryPolicy{}, 0, nil)
	if _, err := tr2.Exchange(context.Background(), q); err != nil {
		t.Fatalf("uninstrumented exchange: %v", err)
	}
}
