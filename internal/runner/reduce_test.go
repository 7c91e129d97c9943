package runner

import (
	"context"
	"sort"
	"sync/atomic"
	"testing"

	"dnsencryption.info/doe/internal/obs"
)

// sumAcc is a reducer accumulator obeying the fold laws: a commutative sum
// plus an index set that is canonicalized by sorting at read time.
type sumAcc struct {
	sum     int64
	indices []int
}

func sumReducer() Reducer[*sumAcc] {
	return Reducer[*sumAcc]{
		New: func() *sumAcc { return &sumAcc{} },
		Fold: func(_ context.Context, acc *sumAcc, i int) {
			acc.sum += int64(i * i)
			acc.indices = append(acc.indices, i)
		},
		Merge: func(dst, src *sumAcc) error {
			dst.sum += src.sum
			dst.indices = append(dst.indices, src.indices...)
			return nil
		},
	}
}

func TestReduceIdenticalAcrossWorkerCounts(t *testing.T) {
	const n = 500
	want, err := MapReduceCtx(context.Background(), 1, n, sumReducer())
	if err != nil {
		t.Fatalf("serial reduce: %v", err)
	}
	for _, workers := range []int{2, 4, 8, 64} {
		got, err := MapReduceCtx(context.Background(), workers, n, sumReducer())
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if got.sum != want.sum {
			t.Fatalf("workers=%d: sum = %d, want %d", workers, got.sum, want.sum)
		}
		sort.Ints(got.indices)
		if len(got.indices) != n {
			t.Fatalf("workers=%d: folded %d indices, want %d", workers, len(got.indices), n)
		}
		for i, idx := range got.indices {
			if idx != i {
				t.Fatalf("workers=%d: sorted indices[%d] = %d", workers, i, idx)
			}
		}
	}
}

func TestReduceFoldsEveryIndexExactlyOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int32, n)
	r := Reducer[*struct{}]{
		New: func() *struct{} { return &struct{}{} },
		Fold: func(_ context.Context, _ *struct{}, i int) {
			counts[i].Add(1)
		},
		Merge: func(_, _ *struct{}) error { return nil },
	}
	if _, err := MapReduceCtx(context.Background(), 8, n, r); err != nil {
		t.Fatal(err)
	}
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d folded %d times", i, c)
		}
	}
}

func TestReduceEmptyWorkload(t *testing.T) {
	got, err := MapReduceCtx(context.Background(), 4, 0, sumReducer())
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.sum != 0 || len(got.indices) != 0 {
		t.Fatalf("n=0: got %+v, want fresh accumulator", got)
	}
}

func TestMapReduceCtxCancellationReturnsPartialAccumulator(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	const n = 10_000
	var folded atomic.Int64
	r := Reducer[*sumAcc]{
		New: func() *sumAcc { return &sumAcc{} },
		Fold: func(_ context.Context, acc *sumAcc, i int) {
			if folded.Add(1) == 32 {
				cancel()
			}
			acc.sum++
		},
		Merge: func(dst, src *sumAcc) error {
			dst.sum += src.sum
			return nil
		},
	}
	got, err := MapReduceCtx(ctx, 4, n, r)
	if err == nil {
		t.Fatal("expected context error after cancellation")
	}
	if got.sum == 0 || got.sum == n {
		t.Fatalf("partial accumulator sum = %d, want in (0, %d)", got.sum, n)
	}
	if got.sum != folded.Load() {
		t.Fatalf("merged sum %d != folds observed %d", got.sum, folded.Load())
	}
}

// TestMapReduceCtxTelemetryMatchesMapCtx pins the meter discipline: the
// streaming fold must leave the same deterministic runner counters behind
// as the positional merge, so swapping a campaign from MapCtx to
// MapReduceCtx does not move a single telemetry line.
func TestMapReduceCtxTelemetryMatchesMapCtx(t *testing.T) {
	const n, workers = 120, 4
	run := func(body func(ctx context.Context)) string {
		rec := obs.NewRecorder("test")
		ctx := obs.WithPool(obs.WithRecorder(context.Background(), rec), "campaign")
		body(ctx)
		return rec.Metrics().Snapshot(false)
	}
	mapped := run(func(ctx context.Context) {
		_, err := MapCtx(ctx, workers, n, func(ctx context.Context, i int) int {
			obs.Metrics(ctx).Counter("task_side_total").Add(2)
			return i
		})
		if err != nil {
			t.Fatal(err)
		}
	})
	reduced := run(func(ctx context.Context) {
		r := Reducer[*sumAcc]{
			New: func() *sumAcc { return &sumAcc{} },
			Fold: func(ctx context.Context, acc *sumAcc, i int) {
				obs.Metrics(ctx).Counter("task_side_total").Add(2)
				acc.sum += int64(i)
			},
			Merge: func(dst, src *sumAcc) error {
				dst.sum += src.sum
				return nil
			},
		}
		if _, err := MapReduceCtx(ctx, workers, n, r); err != nil {
			t.Fatal(err)
		}
	})
	if mapped == "" {
		t.Fatal("MapCtx run recorded no deterministic samples")
	}
	if mapped != reduced {
		t.Fatalf("deterministic snapshots diverge:\nMapCtx:\n%s\nMapReduceCtx:\n%s", mapped, reduced)
	}
}
