package netsim

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"net/netip"
	"runtime"
	"slices"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
)

// sameStream draws n values of mixed kinds from NewSource(seed) and from
// rand.NewSource(seed), reseeding both with reseed before value number at,
// and fails on the first value where they differ. Every kind math/rand
// derives from the source is exercised, so a mismatch anywhere in Int63 or
// Uint64 shows, and so is the bare source's own Float64, which the
// connection buffers draw their jitter from.
func sameStream(t *testing.T, seed, reseed int64, n, at int) {
	t.Helper()
	src := NewSource(seed).(*lazySource)
	got, want := rand.New(src), rand.New(rand.NewSource(seed))
	perm := func(r *rand.Rand) []int {
		p := []int{0, 1, 2, 3, 4, 5, 6, 7}
		r.Shuffle(len(p), func(i, j int) { p[i], p[j] = p[j], p[i] })
		return p
	}
	for i := 0; i < n; i++ {
		if i == at {
			got.Seed(reseed)
			want.Seed(reseed)
		}
		var g, w any
		switch i % 6 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Intn(1000+i), want.Intn(1000+i)
		case 4:
			gp, wp := perm(got), perm(want)
			if !slices.Equal(gp, wp) {
				t.Fatalf("seed %d, reseed %d: draw %d (Shuffle) = %v, want %v", seed, reseed, i, gp, wp)
			}
			continue
		case 5:
			g, w = src.Float64(), want.Float64()
		}
		if g != w {
			t.Fatalf("seed %d, reseed %d: draw %d = %v, want %v", seed, reseed, i, g, w)
		}
	}
}

// TestSourceMatchesMathRand proves NewSource's stream bit-identical to
// math/rand's across the seed normalisation edge cases and well past the
// 273-draw handoff to the materialised source, before and after a reseed.
func TestSourceMatchesMathRand(t *testing.T) {
	seeds := []int64{
		0, -1, 1, 89482311,
		int32max, int32max - 1, int32max + 1,
		2 * int32max, -int32max, -2 * int32max, 7 * int32max,
		math.MaxInt64 / int32max * int32max, math.MinInt64 / int32max * int32max,
		math.MinInt64, math.MaxInt64,
	}
	gen := rand.New(rand.NewSource(1))
	for range 300 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	for i, seed := range seeds {
		// 1,500 values take about 3,000 draws. Reseed to the next seed in
		// the list once inside the lazy prefix and once past the handoff.
		next := seeds[(i+1)%len(seeds)]
		sameStream(t, seed, next, 1500, 50)
		sameStream(t, seed, next, 1500, 750)
	}
}

// FuzzSourceMatchesMathRand extends the equivalence to arbitrary seeds and
// draw counts.
func FuzzSourceMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(1))
	f.Add(int64(-1), uint16(272))
	f.Add(int64(int32max), uint16(273))
	f.Add(int64(math.MinInt64), uint16(1500))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		sameStream(t, seed, ^seed, int(n), int(n)/2)
	})
}

// TestNewSourceAllocs pins the per-flow cost: seeding and a connection's
// worth of jitter draws allocate only the source itself.
func TestNewSourceAllocs(t *testing.T) {
	var sink float64
	seed := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		r := rand.New(NewSource(seed))
		for range 8 {
			sink += r.Float64()
		}
		seed++
	})
	if allocs > 1 {
		t.Errorf("NewSource and 8 Float64 draws: %v allocs, want <= 1", allocs)
	}
	_ = sink
}

// BenchmarkNewSource seeds one source and draws a connection's worth of
// jitter from it, lazily and through math/rand's eager seeding.
func BenchmarkNewSource(b *testing.B) {
	for _, bc := range []struct {
		name string
		new  func(int64) rand.Source
	}{
		{"netsim", func(s int64) rand.Source { return NewSource(s) }},
		{"math-rand", rand.NewSource},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				r := rand.New(bc.new(int64(i)))
				for range 8 {
					sink += r.Float64()
				}
			}
			_ = sink
		})
	}
}

// flowRNG is the flow seeding that World.flowSeeds replaced: hash/fnv over
// the world seed, both addresses' MarshalBinary and the port, seeding a
// rand.Rand whose first two Int63 draws seed a connection's directions.
func flowRNG(seed int64, from, to netip.Addr, port uint16) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(seed))
	h.Write(buf[:])
	b, _ := from.MarshalBinary()
	h.Write(b)
	b, _ = to.MarshalBinary()
	h.Write(b)
	binary.BigEndian.PutUint64(buf[:], uint64(port))
	h.Write(buf[:])
	return rand.New(NewSource(int64(h.Sum64())))
}

// TestFlowSeedsMatchFlowRNG: flowSeeds hashes the bytes flowRNG hashed, for
// every address form MarshalBinary spells differently, so no connection's
// jitter moves; and it allocates nothing.
func TestFlowSeedsMatchFlowRNG(t *testing.T) {
	addrs := []netip.Addr{
		netip.MustParseAddr("192.0.2.10"),
		netip.MustParseAddr("2001:db8::53"),
		netip.MustParseAddr("fe80::1%eth0"),
		netip.MustParseAddr("::ffff:192.0.2.10"),
		{},
	}
	for _, seed := range []int64{0, 1, 20190501, -1, -7, math.MinInt64, math.MaxInt64} {
		w := NewWorld(seed)
		for _, from := range addrs {
			for _, to := range addrs {
				for _, port := range []uint16{0, 853, 65535} {
					ab, ba := w.flowSeeds(from, to, port)
					ref := flowRNG(seed, from, to, port)
					if wantAB, wantBA := ref.Int63(), ref.Int63(); ab != wantAB || ba != wantBA {
						t.Errorf("seed %d, %v -> %v:%d: flowSeeds = (%d, %d), flowRNG draws (%d, %d)",
							seed, from, to, port, ab, ba, wantAB, wantBA)
					}
				}
			}
		}
	}
	w := NewWorld(1)
	if allocs := testing.AllocsPerRun(100, func() { w.flowSeeds(addrs[2], addrs[1], 853) }); allocs != 0 {
		t.Errorf("flowSeeds: %v allocs, want 0", allocs)
	}
}

// connLife is one simulated connection's life outside any world: Pair
// with jitter drawn from rng, one segment of msg each way, and both
// Closes.
func connLife(tb testing.TB, rng *rand.Rand, msg, buf []byte) {
	c, s := Pair(Addr{IP: clientIP, Port: 40000}, Addr{IP: serverIP, Port: 53}, 20*time.Millisecond, rng, 0.1)
	if _, err := c.Write(msg); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Read(buf); err != nil {
		tb.Fatal(err)
	}
	if _, err := s.Write(msg); err != nil {
		tb.Fatal(err)
	}
	if _, err := c.Read(buf); err != nil {
		tb.Fatal(err)
	}
	c.Close()
	s.Close()
}

// TestConnPairAllocs pins a connection's cost: its life makes one
// allocation, the pair itself, in the 640-byte size class; segment buffers
// come from bufpool. The pair is pointerful and over 512 B, so the runtime
// adds an 8-byte header: a pair of 633 B or more lands in the 768-byte
// class.
func TestConnPairAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	msg, buf := make([]byte, 64), make([]byte, 64)
	allocs, bytes := allocsBesidesPool(1000, func() { connLife(t, rng, msg, buf) })
	if allocs > 1 {
		t.Errorf("a connection's life: %v allocs, want at most 1", allocs)
	}
	if bytes > 640 {
		t.Errorf("a connection's life: %v bytes, want at most 640", bytes)
	}
}

// refillBytes is what one bufpool miss allocates for connLife's 64-byte
// segments: a 512-byte class buffer and the 24-byte slice header its
// pointer holds.
const refillBytes = 512 + 24

// allocsBesidesPool is testing.AllocsPerRun, and the bytes allocated per
// run, less bufpool's refills. A pool miss makes two objects, a buffer and
// its pointer, and how often the pool misses depends on GC timing and,
// under the race detector, on sync.Pool dropping a quarter of all Puts on
// purpose. f must Get only buffers of the 512-byte class.
func allocsBesidesPool(runs int, f func()) (allocs, bytes uint64) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	pool := bufpool.Snapshot()
	runtime.ReadMemStats(&before)
	for range runs {
		f()
	}
	runtime.ReadMemStats(&after)
	misses := bufpool.Snapshot().Misses - pool.Misses
	allocs = (after.Mallocs - before.Mallocs - 2*misses) / uint64(runs)
	bytes = (after.TotalAlloc - before.TotalAlloc - refillBytes*misses) / uint64(runs)
	return allocs, bytes
}

// BenchmarkConnPair measures one simulated connection's life outside any
// world: Pair with jitter on, one segment each way, and Close.
func BenchmarkConnPair(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	msg, buf := make([]byte, 64), make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		connLife(b, rng, msg, buf)
	}
}
