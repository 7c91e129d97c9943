package runner

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
)

// Reducer bundles the accumulator callbacks of one streaming fold. The pool
// gives every worker goroutine its own accumulator (New), folds each
// completed item into it in place (Fold), and merges the per-worker
// accumulators into a single one at the join (Merge) — per-item results
// never materialize as a slice, so a campaign's memory is
// O(workers·accumulator), not O(population).
//
// Determinism contract: work is handed out through one atomic counter, so
// which worker folds which index — and the order of indices within one
// accumulator — depends on scheduling. The merged accumulator is identical
// at every worker count only if Fold is insensitive to fold order within an
// accumulator and Merge is insensitive to how indices were partitioned
// across accumulators. In practice that means counters add, high-water
// marks take maxima, sketch buckets add, and anything order-bearing
// carries its input index so a final sort restores a canonical order.
// Fold laws, for the record:
//
//	Merge(New(), s)  ≡ s                      (identity)
//	Merge(Merge(a,b),c) ≡ Merge(a,Merge(b,c)) (associativity)
//	Merge(a,b) ≡ Merge(b,a)                   (commutativity, up to the
//	                                           canonicalizing sort)
type Reducer[A any] struct {
	// New allocates one empty accumulator; called once per worker plus,
	// with more than one worker, once for the merge destination.
	New func() A
	// Fold folds item i into acc. It runs on the worker goroutine that
	// drew i and has exclusive access to acc.
	Fold func(ctx context.Context, acc A, i int)
	// Merge folds src into dst. Called serially at the pool join, in
	// worker order, after every worker has exited.
	Merge func(dst, src A) error
}

// MapReduceCtx runs r.Fold for every i in [0, n) on at most `workers`
// goroutines, each folding into its own accumulator. workers <= 1 runs the
// loop serially on the calling goroutine and returns its accumulator;
// workers is clamped to n so short workloads never spawn idle goroutines.
// With more than one worker, the worker accumulators merge into a fresh
// New() destination in worker order after the pool joins, and that
// accumulator is returned.
//
// Cancellation: once ctx is done workers stop taking new indices,
// in-flight Fold calls finish, and the partial accumulator is returned
// alongside ctx.Err(). The pool always joins every worker before merging,
// so Merge never races a Fold.
func MapReduceCtx[A any](ctx context.Context, workers, n int, r Reducer[A]) (A, error) {
	if n <= 0 {
		return r.New(), ctx.Err()
	}
	workers = max(1, min(workers, n))
	meters := newPoolMeters(ctx, workers, n)
	accs := make([]A, workers)
	var next atomic.Int64
	work := func(w int) {
		wctx, wm := meters.workerCtx(ctx, w)
		acc := r.New()
		accs[w] = acc
		for ctx.Err() == nil {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			meters.taskStart(wm)
			r.Fold(wctx, acc, i)
			meters.taskEnd()
		}
	}
	if workers == 1 {
		work(0)
		return accs[0], ctx.Err()
	}
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w)
		}()
	}
	wg.Wait()
	dst := r.New()
	var errs []error
	for _, acc := range accs {
		errs = append(errs, r.Merge(dst, acc))
	}
	if err := errors.Join(errs...); err != nil {
		return dst, errors.Join(ctx.Err(), err)
	}
	return dst, ctx.Err()
}
