// Package runner is the parallel execution engine for the measurement
// pipeline: a bounded worker pool that shards an indexed workload across N
// goroutines and merges results deterministically.
//
// MapReduceCtx is the one worker loop. Work items are handed out through a
// single atomic counter (natural backpressure — a worker takes a new index
// only when it finishes the previous one), workers <= 1 runs the same loop
// serially on the caller, and the pool always joins every worker before
// returning, so no goroutines outlive the call. MapCtx is MapReduceCtx with
// a fold that writes each result into its input slot.
//
// Determinism contract: MapCtx(ctx, workers, n, fn) returns exactly
// [fn(0), fn(1), ..., fn(n-1)] — each result is stored at its input index,
// so the merged slice is identical for every worker count, including
// workers=1. Callers keep reports bit-for-bit reproducible by (a) deriving
// any randomness inside fn(i) from the task's own identity (index, address,
// vantage key) rather than from call order, and (b) reducing the returned
// slice in index order. The pool itself adds no ordering of its own.
//
// Telemetry: when the context carries an obs.Recorder, the pool records
// task counts and pool-wide virtual busy time (deterministic), plus worker
// counts, in-flight high-water marks and per-worker task/busy shares
// (volatile; their split across workers depends on scheduling). Workers and
// the tasks they run record straight into the recorder's registry, whose
// counters and sketch buckets are atomics: addition commutes, so every
// total is the same at any worker count. The pool also feeds the
// recorder's progress Phase named after the pool (done/total task counts
// for the /progress endpoint). Name the pool with obs.WithPool before
// calling.
package runner

import (
	"context"
	"strconv"
	"sync/atomic"

	"dnsencryption.info/doe/internal/obs"
)

// poolMeters carries the instruments of one pool call; nil when the
// context carries no recorder (telemetry off), and every method is then a
// no-op.
type poolMeters struct {
	reg         *obs.Registry
	pool        string
	phase       *obs.Phase // live done/total progress for /progress
	inflightMax *obs.Gauge // volatile
	inflight    atomic.Int64
}

func newPoolMeters(ctx context.Context, workers, n int) *poolMeters {
	rec := obs.FromContext(ctx)
	if rec == nil {
		return nil
	}
	reg := rec.Metrics()
	pool := obs.PoolName(ctx, "pool")
	m := &poolMeters{
		reg:         reg,
		pool:        pool,
		phase:       rec.Phase(pool),
		inflightMax: reg.VolatileGauge("runner_inflight_max", "pool", pool),
	}
	m.phase.AddTotal(int64(n))
	// Max, not Set: one pool name may serve several calls (both campaign
	// platforms share "campaign"), so keep the high-water mark.
	reg.VolatileGauge("runner_workers", "pool", pool).Max(int64(workers))
	return m
}

// workerMeters holds one worker's counter handles, resolved once per
// worker rather than once per task.
type workerMeters struct {
	tasks       *obs.Counter // deterministic: pool-wide task count
	workerTasks *obs.Counter // volatile: this worker's share
}

// workerCtx builds the per-worker context, which carries the busy-time
// sink obs.Charge feeds, and resolves the worker's task counters.
func (m *poolMeters) workerCtx(ctx context.Context, worker int) (context.Context, workerMeters) {
	if m == nil {
		return ctx, workerMeters{}
	}
	w := strconv.Itoa(worker)
	total := m.reg.Counter("runner_virtual_busy_us_total", "pool", m.pool)
	busy := m.reg.VolatileCounter("runner_worker_virtual_busy_us", "pool", m.pool, "worker", w)
	return obs.WithWorkerSink(ctx, total, busy), workerMeters{
		tasks:       m.reg.Counter("runner_tasks_total", "pool", m.pool),
		workerTasks: m.reg.VolatileCounter("runner_worker_tasks", "pool", m.pool, "worker", w),
	}
}

func (m *poolMeters) taskStart(wm workerMeters) {
	if m == nil {
		return
	}
	wm.tasks.Add(1)
	wm.workerTasks.Add(1)
	m.inflightMax.Max(m.inflight.Add(1))
}

func (m *poolMeters) taskEnd() {
	if m == nil {
		return
	}
	m.inflight.Add(-1)
	m.phase.Done(1)
}

// MapCtx runs fn(ctx, i) for every i in [0, n) on at most `workers`
// goroutines and returns the results in input order. Once ctx is done,
// workers stop taking new indices and MapCtx returns ctx.Err() alongside
// the partial results (indices that never ran hold T's zero value).
// In-flight fn calls are not interrupted — fn observes ctx itself if it
// wants mid-task cancellation — but the pool still joins every worker
// before returning, so shutdown leaks no goroutines.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(ctx context.Context, i int) T) ([]T, error) {
	if n <= 0 {
		return nil, ctx.Err()
	}
	// Every worker shares the one result slice: each index has its own
	// slot, so the fold needs no merge.
	out := make([]T, n)
	_, err := MapReduceCtx(ctx, workers, n, Reducer[[]T]{
		New:   func() []T { return out },
		Fold:  func(ctx context.Context, out []T, i int) { out[i] = fn(ctx, i) },
		Merge: func(_, _ []T) error { return nil },
	})
	return out, err
}
