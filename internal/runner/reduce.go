package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"

	"dnsencryption.info/doe/internal/obs"
)

// Reducer bundles the accumulator callbacks of one streaming fold. The pool
// gives every worker goroutine its own accumulator (New), folds each
// completed item into it in place (Fold), and merges the per-worker shards
// into a single accumulator at the join (Merge) — per-item results never
// materialize as a slice, so a campaign's memory is O(workers·accumulator),
// not O(population).
//
// Determinism contract: work is handed out through the same atomic counter
// as Map, so which worker folds which index — and the order of indices
// within one shard — depends on scheduling. The merged accumulator is
// identical at every worker count only if Fold is insensitive to fold order
// within a shard and Merge is insensitive to how indices were partitioned
// across shards. In practice that means the sum/sum/max discipline of
// obs.Registry.Merge: counters add, gauges take maxima, sketch buckets add,
// and anything order-bearing carries its input index so a final sort
// restores a canonical order. Fold laws, for the record:
//
//	Merge(New(), s)  ≡ s                      (identity)
//	Merge(Merge(a,b),c) ≡ Merge(a,Merge(b,c)) (associativity)
//	Merge(a,b) ≡ Merge(b,a)                   (commutativity, up to the
//	                                           canonicalizing sort)
type Reducer[A any] struct {
	// New allocates one empty accumulator; called once per worker shard
	// plus once for the merge destination.
	New func() A
	// Fold folds item i into acc. It runs on the worker goroutine that
	// drew i and has exclusive access to acc.
	Fold func(ctx context.Context, acc A, i int)
	// Merge folds src into dst. Called serially at the pool join, in
	// worker order, after every worker has exited.
	Merge func(dst, src A) error
}

// MapReduceCtx is the streaming-fold counterpart of MapCtx: same bounded
// pool, same atomic work handout, same cooperative cancellation and
// telemetry discipline (task counts, phase progress, per-worker shard
// registries folded at the join), but each completed item feeds a
// per-worker accumulator instead of a positional slot in a result slice.
// After the pool joins, the worker accumulators merge into a fresh New()
// destination in worker order and that accumulator is returned.
//
// Cancellation mirrors MapCtx: once ctx is done workers stop taking new
// indices, in-flight Fold calls finish, and the partial accumulator is
// returned alongside ctx.Err(). The pool always joins every worker before
// merging, so Merge never races a Fold.
func MapReduceCtx[A any](ctx context.Context, workers, n int, r Reducer[A]) (A, error) {
	if n <= 0 {
		return r.New(), ctx.Err()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		meters := newPoolMeters(ctx, 1, n)
		sctx, wm := meters.workerCtx(ctx, 0, false)
		acc := r.New()
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return acc, err
			}
			meters.taskStart(wm)
			r.Fold(sctx, acc, i)
			meters.taskEnd()
		}
		return acc, ctx.Err()
	}
	meters := newPoolMeters(ctx, workers, n)
	meters.shards = make([]*obs.Registry, workers)
	accs := make([]A, workers)
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wctx, wm := meters.workerCtx(ctx, w, true)
			accs[w] = r.New()
			for {
				if ctx.Err() != nil {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				meters.taskStart(wm)
				r.Fold(wctx, accs[w], i)
				meters.taskEnd()
			}
		}(w)
	}
	wg.Wait()
	var errs []error
	if err := meters.fold(); err != nil {
		errs = append(errs, err)
	}
	// Merge worker accumulators in worker order — the same join-point
	// convention as the shard-registry fold above.
	dst := r.New()
	for w := 0; w < workers; w++ {
		if err := r.Merge(dst, accs[w]); err != nil {
			errs = append(errs, err)
		}
	}
	if len(errs) > 0 {
		return dst, errors.Join(append([]error{ctx.Err()}, errs...)...)
	}
	return dst, ctx.Err()
}
