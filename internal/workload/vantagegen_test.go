package workload

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

// renderNodes materializes nodes [0, n) by walking the index space in
// chunks of the given size — the access pattern a sharded campaign
// produces — and renders each node to one canonical line.
func renderNodes(m *VantageModel, n, chunk int) string {
	var b strings.Builder
	for base := 0; base < n; base += chunk {
		end := base + chunk
		if end > n {
			end = n
		}
		for i := base; i < end; i++ {
			nd := m.Node(i)
			fmt.Fprintf(&b, "%s|%s|%s|%d|%s|%s\n",
				nd.ID, nd.Addr, nd.Country, nd.ASN, nd.ASName, nd.Lifetime)
		}
	}
	return b.String()
}

// TestVantageStreamChunkInvariant pins the generator-determinism contract:
// same seed ⇒ byte-identical first-N node stream no matter how the
// iterator is chunked across shards.
func TestVantageStreamChunkInvariant(t *testing.T) {
	const n = 5000
	m := NewVantageModel(20190501)
	want := renderNodes(m, n, 1)
	for _, chunk := range []int{7, 64, 4096} {
		if got := renderNodes(NewVantageModel(20190501), n, chunk); got != want {
			t.Fatalf("chunk=%d: node stream diverges from chunk=1 stream", chunk)
		}
	}
	if other := renderNodes(NewVantageModel(42), n, 1); other == want {
		t.Fatal("different seeds produced identical node streams")
	}
}

func TestVantageModelRoundTripsAddresses(t *testing.T) {
	m := NewVantageModel(1)
	for _, i := range []int{0, 1, 255, 256, 65535, 65536, VantageCapacity - 1} {
		got, ok := m.IndexOf(m.Addr(i))
		if !ok || got != i {
			t.Fatalf("IndexOf(Addr(%d)) = %d, %v", i, got, ok)
		}
	}
	if _, ok := m.IndexOf(m.Addr(0).Prev()); ok {
		t.Fatal("address outside the generated plane resolved to an index")
	}
}

// TestVantageMixShapesPopulation checks the synthesized country mix tracks
// the Table 3 weights: every listed country appears, and the heaviest
// weight is within 20% (relative) of its expected share over a large
// sample.
func TestVantageMixShapesPopulation(t *testing.T) {
	const n = 100_000
	m := NewVantageModel(7)
	counts := map[string]int{}
	lifetimes := map[string]bool{}
	for i := 0; i < n; i++ {
		nd := m.Node(i)
		counts[nd.Country]++
		lifetimes[nd.Lifetime.String()] = true
		if nd.ASN < 30000 || nd.ASN >= 30500 {
			t.Fatalf("node %d: ASN %d outside the residential block", i, nd.ASN)
		}
	}
	total := 0
	for _, w := range VantageMix() {
		total += w.Weight
		if counts[w.CC] == 0 {
			t.Fatalf("country %s never synthesized in %d nodes", w.CC, n)
		}
	}
	wantID := float64(n) * 10 / float64(total)
	if got := float64(counts["ID"]); got < 0.8*wantID || got > 1.2*wantID {
		t.Fatalf("ID share %v outside 20%% of expected %v", got, wantID)
	}
	if len(lifetimes) < 50 {
		t.Fatalf("lifetime spread too narrow: %d distinct values", len(lifetimes))
	}
}

// formattedASName is how Location named an AS when it formatted the name
// on every call; the table it reads now must give the same strings.
func formattedASName(cc string, asn int) string {
	asName := fmt.Sprintf("%s Residential ISP %d", cc, asn%37)
	switch cc {
	case "BR":
		asName = "Telefnica Brazil S.A"
	case "ID":
		asName = "PT Telekomunikasi Selular"
	case "LA":
		asName = "Sinam LLC"
	case "MY":
		asName = "Speednet Telecomunicacoes Ldta"
	}
	return asName
}

// TestLocationASNamesMatchFormatted walks node indices until Location has
// named an AS in every (country, asn mod 37) cell, the four Table 5/6
// countries included, and requires each name to equal the formatted one.
// Two goroutines make a fresh model's first call, which builds the name
// table, so the race detector sees the lazy build. After that, Location
// allocates nothing.
func TestLocationASNamesMatchFormatted(t *testing.T) {
	m := NewVantageModel(20190501)
	var wg sync.WaitGroup
	for g := range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Location(g)
		}()
	}
	wg.Wait()
	type cell struct {
		cc  string
		mod int
	}
	seen := make(map[cell]bool)
	for i := 0; len(seen) < len(vantageMix)*37; i++ {
		if i == VantageCapacity {
			t.Fatalf("%d of %d (country, asn mod 37) cells named over the whole plane", len(seen), len(vantageMix)*37)
		}
		loc := m.Location(i)
		if want := formattedASName(loc.Country, loc.ASN); loc.ASName != want {
			t.Fatalf("Location(%d) = %+v, want AS name %q", i, loc, want)
		}
		seen[cell{loc.Country, loc.ASN % 37}] = true
	}
	if allocs := testing.AllocsPerRun(1000, func() { m.Location(12345) }); allocs != 0 {
		t.Errorf("Location allocates %v objects per call after its first, want 0", allocs)
	}
}
