// Package obs is the measurement pipeline's zero-dependency observability
// layer: hierarchical spans, counters, gauges and latency sketches, and the
// context plumbing that threads them through resolver, faults, runner,
// scanner, vantage and core.
//
// Everything obs records is charged to the netsim virtual clock — spans
// carry virtual durations, sketches bucket virtual latencies, and no
// recording path ever reads the wall clock (enforced by the doelint
// `walltaint` check). That is what lets a trace and a metrics snapshot
// share the report contract: byte-identical output for a fixed seed at any
// worker count.
//
// Every entry point is nil-safe: a nil *Recorder, *Span, *Registry,
// *Counter, *Gauge or *Sketch turns the corresponding call into a
// no-op, so instrumented packages never branch on "telemetry enabled".
package obs

import (
	"context"
	"net/netip"
	"sync"
	"time"
)

// Recorder is the per-study telemetry hub: one span tree plus one metric
// registry. It is safe for concurrent use by the runner pool's workers.
type Recorder struct {
	root *Span
	reg  *Registry

	mu    sync.Mutex
	flows map[flowKey]*Span

	phaseMu    sync.Mutex
	phases     map[string]*Phase
	phaseOrder []string
}

type flowKey struct {
	from, to netip.Addr
}

// NewRecorder returns a Recorder whose span tree is rooted at a span named
// root ("study" for full pipeline runs).
func NewRecorder(root string) *Recorder {
	r := &Recorder{reg: NewRegistry(), flows: make(map[flowKey]*Span)}
	r.root = &Span{rec: r, name: sanitizeName(root), key: -1}
	return r
}

// Root returns the root span, or nil on a nil Recorder.
func (r *Recorder) Root() *Span {
	if r == nil {
		return nil
	}
	return r.root
}

// Metrics returns the recorder's registry, or nil on a nil Recorder (a nil
// *Registry is itself a no-op sink).
func (r *Recorder) Metrics() *Registry {
	if r == nil {
		return nil
	}
	return r.reg
}

// WatchFlow binds sp as the active span for the (from, to) flow pair and
// returns a release func that unbinds it. The fault injector annotates
// spans through this binding (FlowEvent) because netsim hands it only the
// flow tuple, never a context. Determinism relies on the same contract
// that keeps faulted reports byte-identical: the injector's Sources gate
// restricts faults to vantage-edge tuples, and each such tuple is dialed
// by exactly one runner task at a time, so at most one span ever watches a
// given pair.
func (r *Recorder) WatchFlow(from, to netip.Addr, sp *Span) (release func()) {
	if r == nil || sp == nil {
		return func() {}
	}
	k := flowKey{from, to}
	r.mu.Lock()
	r.flows[k] = sp
	r.mu.Unlock()
	return func() {
		r.mu.Lock()
		if r.flows[k] == sp {
			delete(r.flows, k)
		}
		r.mu.Unlock()
	}
}

// FlowEvent appends event to the span currently watching (from, to), if
// any. Called by the fault injector at the moment it perturbs a flow.
func (r *Recorder) FlowEvent(from, to netip.Addr, event string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	sp := r.flows[flowKey{from, to}]
	r.mu.Unlock()
	sp.Event(event)
}

// SpanCount reports the number of spans recorded so far, excluding the
// root. The count is schedule-independent for a deterministic study run.
func (r *Recorder) SpanCount() int {
	if r == nil {
		return 0
	}
	return r.root.descendants()
}

// ── context plumbing ──────────────────────────────────────────────────────

type recorderCtxKey struct{}
type spanCtxKey struct{}
type workerSinkCtxKey struct{}
type poolNameCtxKey struct{}

// workerSink accumulates per-worker virtual busy time; the runner pool
// puts one in each worker's context.
type workerSink struct {
	total  *Counter // deterministic: pool-wide virtual busy total
	worker *Counter // volatile: this worker's share (schedule-dependent)
}

// WithRecorder returns a context carrying r, with the current span set to
// r's root. It is the entry point core uses to thread telemetry through
// the pipeline.
func WithRecorder(ctx context.Context, r *Recorder) context.Context {
	if r == nil {
		return ctx
	}
	ctx = context.WithValue(ctx, recorderCtxKey{}, r)
	return context.WithValue(ctx, spanCtxKey{}, r.root)
}

// FromContext returns the Recorder carried by ctx, or nil.
func FromContext(ctx context.Context) *Recorder {
	if ctx == nil {
		return nil
	}
	r, _ := ctx.Value(recorderCtxKey{}).(*Recorder)
	return r
}

// Metrics returns the registry of the recorder ctx carries, or nil.
func Metrics(ctx context.Context) *Registry {
	return FromContext(ctx).Metrics()
}

// CurrentSpan returns the span ctx points at, or nil.
func CurrentSpan(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	sp, _ := ctx.Value(spanCtxKey{}).(*Span)
	return sp
}

// WithSpan repoints ctx at sp, making it the parent of subsequent Start
// calls. Core uses it to parent pipeline stages under the experiment span
// that triggered them; a nil sp returns ctx unchanged.
func WithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// Start opens a child span of ctx's current span and returns a derived
// context pointing at it. With telemetry off (no recorder in ctx) both
// returns are usable no-ops: ctx unchanged and a nil *Span.
//
// Concurrent siblings (fan-out under runner) MUST pass Key(i) with their
// task index so export order is schedule-independent; serial siblings rely
// on per-parent creation order instead.
func Start(ctx context.Context, name string, opts ...SpanOption) (context.Context, *Span) {
	parent := CurrentSpan(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.Start(name, opts...)
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}

// Charge adds virtual duration d to the current span and to the worker
// busy-time sink, if the context carries one. d is a virtual-clock delta
// (e.g. Conn.Elapsed() differences), never wall time.
func Charge(ctx context.Context, d time.Duration) {
	if ctx == nil || d <= 0 {
		return
	}
	CurrentSpan(ctx).Charge(d)
	if sink, ok := ctx.Value(workerSinkCtxKey{}).(*workerSink); ok && sink != nil {
		us := int64(d / 1000) // ns → µs
		sink.total.Add(us)
		sink.worker.Add(us)
	}
}

// WithPool names the runner pool instrumented calls beneath ctx belong to;
// the runner pool reads it for metric labels and its progress phase.
func WithPool(ctx context.Context, name string) context.Context {
	return context.WithValue(ctx, poolNameCtxKey{}, name)
}

// PoolName returns the pool name carried by ctx, or fallback.
func PoolName(ctx context.Context, fallback string) string {
	if ctx != nil {
		if s, ok := ctx.Value(poolNameCtxKey{}).(string); ok && s != "" {
			return s
		}
	}
	return fallback
}

// WithWorkerSink attaches per-worker busy-time counters to ctx. The total
// counter is deterministic (schedule-independent sum); the worker counter
// is volatile. The runner pool installs one per worker goroutine.
func WithWorkerSink(ctx context.Context, total, worker *Counter) context.Context {
	return context.WithValue(ctx, workerSinkCtxKey{}, &workerSink{total: total, worker: worker})
}
