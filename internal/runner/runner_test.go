package runner

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/obs"
)

// mapAll runs MapCtx without cancellation, where it cannot fail.
func mapAll[T any](t *testing.T, workers, n int, fn func(i int) T) []T {
	t.Helper()
	out, err := MapCtx(context.Background(), workers, n, func(_ context.Context, i int) T { return fn(i) })
	if err != nil {
		t.Fatalf("workers=%d n=%d: %v", workers, n, err)
	}
	return out
}

func TestMapOrderIndependentOfWorkers(t *testing.T) {
	fn := func(i int) int { return i * i }
	want := mapAll(t, 1, 100, fn)
	for _, workers := range []int{2, 4, 16, 200} {
		got := mapAll(t, workers, 100, fn)
		if len(got) != len(want) {
			t.Fatalf("workers=%d: got %d results, want %d", workers, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestMapRunsEveryIndexExactlyOnce(t *testing.T) {
	const n = 1000
	counts := make([]atomic.Int32, n)
	mapAll(t, 8, n, func(i int) struct{} {
		counts[i].Add(1)
		return struct{}{}
	})
	for i := range counts {
		if c := counts[i].Load(); c != 1 {
			t.Fatalf("index %d ran %d times", i, c)
		}
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got := mapAll(t, 4, 0, func(i int) int { return i }); got != nil {
		t.Fatalf("n=0: got %v, want nil", got)
	}
	// workers <= 0 must still complete the workload (serial fallback).
	got := mapAll(t, 0, 3, func(i int) int { return i + 1 })
	if len(got) != 3 || got[0] != 1 || got[2] != 3 {
		t.Fatalf("workers=0: got %v", got)
	}
	got = mapAll(t, -5, 2, func(i int) int { return i })
	if len(got) != 2 {
		t.Fatalf("workers=-5: got %v", got)
	}
}

func TestMapNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for r := 0; r < 20; r++ {
		mapAll(t, 16, 64, func(i int) int { return i })
	}
	// The pool joins all workers before returning; allow a little slack
	// for runtime-internal goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if after := runtime.NumGoroutine(); after <= before+2 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: before=%d after=%d", before, runtime.NumGoroutine())
		}
		runtime.Gosched()
	}
}

func TestMapCtxCancellationStopsNewWork(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int32
	const n = 10000
	out, err := MapCtx(ctx, 4, n, func(ctx context.Context, i int) int {
		if started.Add(1) == 8 {
			cancel()
		}
		return i + 1
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if len(out) != n {
		t.Fatalf("partial result slice has len %d, want %d", len(out), n)
	}
	if got := started.Load(); got == n {
		t.Fatalf("cancellation did not stop work issuance (all %d tasks ran)", n)
	}
	// Every index that ran holds fn(i); the rest hold the zero value.
	for i, v := range out {
		if v != 0 && v != i+1 {
			t.Fatalf("out[%d] = %d, want 0 or %d", i, v, i+1)
		}
	}
}

func TestMapCtxCompletesWithoutCancellation(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, 50, func(ctx context.Context, i int) int {
		return i * 3
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
	for i, v := range out {
		if v != i*3 {
			t.Fatalf("out[%d] = %d, want %d", i, v, i*3)
		}
	}
}

func TestMapCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	_, err := MapCtx(ctx, 4, 100, func(ctx context.Context, i int) int {
		ran.Add(1)
		return i
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := ran.Load(); got > 4 {
		t.Fatalf("pre-cancelled context still ran %d tasks", got)
	}
}

// TestMapCtxMetricsIdenticalAcrossWorkerCounts drives instrumented pools
// at several worker counts and asserts the deterministic snapshot — task
// totals, busy time, and metrics the tasks themselves record through
// obs.Metrics(ctx) — is byte-identical: workers record concurrently into
// the one study registry without losing or double-counting anything.
func TestMapCtxMetricsIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(workers int) (string, *obs.Recorder) {
		rec := obs.NewRecorder("test")
		ctx := obs.WithRecorder(context.Background(), rec)
		ctx = obs.WithPool(ctx, "fold")
		_, err := MapCtx(ctx, workers, 100, func(ctx context.Context, i int) int {
			m := obs.Metrics(ctx)
			m.Counter("task_outcomes_total", "outcome", []string{"a", "b", "c"}[i%3]).Add(1)
			m.Sketch("task_latency").Observe(time.Duration(i) * time.Millisecond)
			obs.Charge(ctx, time.Duration(i)*time.Microsecond)
			return i
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return rec.Metrics().Snapshot(false), rec
	}

	want, _ := run(1)
	if want == "" {
		t.Fatal("instrumented pool produced an empty snapshot")
	}
	for _, workers := range []int{2, 4, 8, 16} {
		got, rec := run(workers)
		if got != want {
			t.Errorf("workers=%d snapshot diverged\ngot:\n%s\nwant:\n%s", workers, got, want)
		}
		progress := rec.Progress()
		if len(progress) != 1 || progress[0] != (obs.PhaseStatus{Name: "fold", Done: 100, Total: 100}) {
			t.Errorf("workers=%d progress = %+v", workers, progress)
		}
	}
}
