package obs

import (
	"math"
	"sync/atomic"
	"time"
)

// Sketch is obs's one latency distribution: a fixed log-spaced-bucket
// sketch for virtual latencies that span several orders of magnitude.
// Every sketch shares one bucket layout (sketchBounds), and a sketch is
// integer counts only: observations commute, so concurrent workers
// recording into one sketch leave the same buckets at any worker count,
// and Merge is bucket-wise addition (campaign accumulators fold with it).
//
// Like every obs metric it stores integer counts and integer microsecond
// sums only; observations are virtual-clock durations, never wall time.
// The zero value is an empty sketch, and all methods are nil-safe.
type Sketch struct {
	buckets [numBounds]atomic.Int64 // one per bound; +Inf overflow implied by count
	count   atomic.Int64
	sumUS   atomic.Int64
}

// numBounds is the layout's size: 8 bucket edges per decade over the five
// decades from 100µs to 10s, both ends included.
const numBounds = 5*8 + 1

// sketchBounds are the 41 strictly increasing upper bucket edges,
// round(100µs·10^(i/8)) in whole microseconds (the registry's base unit):
// sub-millisecond LAN RTTs to multi-second stalled fault paths at ~30%
// relative quantile error. Edge 8 is exactly 1ms and edge 16 exactly 10ms.
// Computed once at package init and only ever read.
var sketchBounds = func() (e [numBounds]time.Duration) {
	for i := range e {
		e[i] = time.Duration(math.Round(100*math.Pow(10, float64(i)/8))) * time.Microsecond
	}
	return e
}()

// Observe records one virtual duration; nil-safe. Durations above the top
// edge land in the implicit overflow bucket (counted, clamped by Quantile).
func (s *Sketch) Observe(d time.Duration) {
	if s == nil {
		return
	}
	s.count.Add(1)
	s.sumUS.Add(int64(d / time.Microsecond))
	if i := bucketIndex(d); i >= 0 {
		s.buckets[i].Add(1)
	}
}

// bucketIndex returns the first bucket whose edge is >= d, or -1 for
// overflow. Binary search keeps Observe O(log buckets) on the hot path.
func bucketIndex(d time.Duration) int {
	lo, hi := 0, numBounds
	for lo < hi {
		mid := (lo + hi) / 2
		if sketchBounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == numBounds {
		return -1
	}
	return lo
}

// Count returns the number of observations (0 on nil).
func (s *Sketch) Count() int64 {
	if s == nil {
		return 0
	}
	return s.count.Load()
}

// SumUS returns the sum of observations in microseconds (0 on nil).
func (s *Sketch) SumUS() int64 {
	if s == nil {
		return 0
	}
	return s.sumUS.Load()
}

// Quantile estimates the q-quantile by linear interpolation inside the
// bucket that crosses the target rank.
//
// Edge behavior (pinned by tests): a nil or empty sketch returns 0 for
// every q; q is clamped to [0, 1], so q <= 0 behaves like the minimum
// rank and q >= 1 like the maximum; observations above the top edge clamp
// to it.
func (s *Sketch) Quantile(q float64) time.Duration {
	if s == nil {
		return 0
	}
	total := s.count.Load()
	if total == 0 {
		return 0
	}
	rank := clampQ(q) * float64(total)
	var cum int64
	lower := time.Duration(0)
	for i, b := range sketchBounds {
		n := s.buckets[i].Load()
		if float64(cum+n) >= rank {
			if n == 0 {
				return b
			}
			frac := (rank - float64(cum)) / float64(n)
			return lower + time.Duration(frac*float64(b-lower))
		}
		cum += n
		lower = b
	}
	return sketchBounds[numBounds-1]
}

// clampQ pins a quantile request to [0, 1] so out-of-range q degrades to
// the distribution's min/max instead of extrapolating.
func clampQ(q float64) float64 {
	if q < 0 {
		return 0
	}
	if q > 1 {
		return 1
	}
	return q
}

// Merge folds o's observations into s bucket-by-bucket; a nil receiver or
// argument is a no-op.
func (s *Sketch) Merge(o *Sketch) {
	if s == nil || o == nil {
		return
	}
	for i := range o.buckets {
		if n := o.buckets[i].Load(); n != 0 {
			s.buckets[i].Add(n)
		}
	}
	s.count.Add(o.count.Load())
	s.sumUS.Add(o.sumUS.Load())
}

// bucketCounts returns per-edge counts plus the overflow count.
func (s *Sketch) bucketCounts() ([numBounds]int64, int64) {
	var counts [numBounds]int64
	var within int64
	for i := range counts {
		counts[i] = s.buckets[i].Load()
		within += counts[i]
	}
	return counts, s.count.Load() - within
}

// Sketch returns the deterministic sketch name{labels}, creating it on
// first use. labels alternate key, value.
func (r *Registry) Sketch(name string, labels ...string) *Sketch {
	sk, _ := r.instance(name, kindSketch, false, labels).(*Sketch)
	return sk
}
