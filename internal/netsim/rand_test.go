package netsim

import (
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// sameStream draws n values of mixed kinds from NewSource(seed) and from
// rand.NewSource(seed), reseeding both with reseed before value number at,
// and fails on the first value where they differ. Every kind math/rand
// derives from the source is exercised, so a mismatch anywhere in Int63 or
// Uint64 shows.
func sameStream(t *testing.T, seed, reseed int64, n, at int) {
	t.Helper()
	got, want := rand.New(NewSource(seed)), rand.New(rand.NewSource(seed))
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
		switch i % 5 {
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
		// 1,500 values take about 3,300 draws. Reseed to the next seed in
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

// BenchmarkConnPair measures one simulated connection's life outside any
// world: Pair with jitter on, one segment each way, and Close.
func BenchmarkConnPair(b *testing.B) {
	client := Addr{IP: clientIP, Port: 40000}
	server := Addr{IP: serverIP, Port: 53}
	rng := rand.New(rand.NewSource(1))
	msg := make([]byte, 64)
	buf := make([]byte, 64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c, s := Pair(client, server, 20*time.Millisecond, rng, 0.1)
		if _, err := c.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Read(buf); err != nil {
			b.Fatal(err)
		}
		if _, err := s.Write(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			b.Fatal(err)
		}
		c.Close()
		s.Close()
	}
}
