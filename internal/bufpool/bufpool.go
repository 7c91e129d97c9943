// Package bufpool provides size-classed free lists for the byte buffers the
// per-query hot paths churn through: packed queries, TCP frames, TLS record
// reads and simulated network segments.
//
// Pooling is deterministic-safe: a pooled buffer is either fully overwritten
// before use or sliced down to exactly the bytes just written, so reuse can
// never change bytes on the wire — only allocation counts (DESIGN.md §9).
// The traffic counters, by contrast, are scheduling-dependent and belong in
// volatile telemetry only, never in deterministic report output.
package bufpool

import (
	"sync"
	"sync/atomic"
)

// MaxPooled is the largest pooled capacity: a maximal DNS message plus its
// 2-byte TCP length prefix. Larger buffers are allocated directly and
// dropped on Put rather than pinning worst-case memory in the pool.
const MaxPooled = 0xFFFF + 2

// classSizes are the pooled capacities: 512 covers typical queries and
// responses, 2048 covers padded answers and HTTP request heads, 16384
// covers large answers and TLS record reads, MaxPooled the worst case.
var classSizes = [...]int{512, 2048, 16384, MaxPooled}

var pools [len(classSizes)]sync.Pool

var stats struct {
	gets, puts, hits, misses, drops atomic.Uint64
}

// classStats tracks traffic per size class for the occupancy gauges;
// oversized Gets belong to no class.
var classStats [len(classSizes)]struct {
	gets, puts atomic.Uint64
}

// ClassStats counts one size class's traffic.
type ClassStats struct {
	Size       int
	Gets, Puts uint64
}

// Stats counts pool traffic since process start. Gets = Hits + Misses;
// Puts counts buffers accepted back and Drops buffers returned but
// rejected (outside every class), so InUse = Gets - Puts - Drops is the
// number of checked-out buffers the pool still expects back.
type Stats struct {
	Gets, Puts, Hits, Misses, Drops uint64
	PerClass                        [len(classSizes)]ClassStats
}

// InUse returns the current occupancy: buffers handed out and neither
// accepted back nor dropped. Counters are read independently, so a
// snapshot taken mid-flight may be off by the number of racing calls.
func (s Stats) InUse() int64 {
	return int64(s.Gets) - int64(s.Puts) - int64(s.Drops)
}

// Snapshot returns the current pool counters.
func Snapshot() Stats {
	s := Stats{
		Gets:   stats.gets.Load(),
		Puts:   stats.puts.Load(),
		Hits:   stats.hits.Load(),
		Misses: stats.misses.Load(),
		Drops:  stats.drops.Load(),
	}
	for i, size := range classSizes {
		s.PerClass[i] = ClassStats{
			Size: size,
			Gets: classStats[i].gets.Load(),
			Puts: classStats[i].puts.Load(),
		}
	}
	return s
}

// Get returns a zero-length buffer with capacity at least n. The pointer
// form keeps Put from re-boxing the slice header on every return trip.
// Callers must not retain the buffer — or any slice of it — after Put.
func Get(n int) *[]byte {
	stats.gets.Add(1)
	for i, size := range classSizes {
		if n > size {
			continue
		}
		classStats[i].gets.Add(1)
		if v := pools[i].Get(); v != nil {
			stats.hits.Add(1)
			b := v.(*[]byte)
			*b = (*b)[:0]
			return b
		}
		stats.misses.Add(1)
		b := make([]byte, 0, size) //doelint:allow hotalloc -- pool miss; cost amortized across reuses
		return &b
	}
	stats.misses.Add(1)
	b := make([]byte, 0, n) //doelint:allow hotalloc -- oversized request; outside every pool class
	return &b
}

// Put returns b to the pool serving its capacity — a buffer grown past its
// original class by append is filed under the largest class it still
// satisfies. Buffers outside every class are dropped. Put(nil) is a no-op.
// The caller must not touch *b (or aliases of it) after Put.
func Put(b *[]byte) {
	if b == nil {
		return
	}
	c := cap(*b)
	if c > MaxPooled {
		stats.drops.Add(1)
		return
	}
	for i := len(classSizes) - 1; i >= 0; i-- {
		if c >= classSizes[i] {
			*b = (*b)[:0]
			stats.puts.Add(1)
			classStats[i].puts.Add(1)
			pools[i].Put(b)
			return
		}
	}
	stats.drops.Add(1)
}

// Grow returns b extended by n bytes of length, reallocating (with capacity
// doubling) only when needed. The added bytes are uninitialized.
func Grow(b []byte, n int) []byte {
	want := len(b) + n
	if want <= cap(b) {
		return b[:want]
	}
	nb := make([]byte, want, max(want, 2*cap(b))) //doelint:allow hotalloc -- amortized doubling; steady state reuses capacity
	copy(nb, b)
	return nb
}
