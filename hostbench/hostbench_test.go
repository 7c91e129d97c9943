package main

import (
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets the test binary serve as the benchmark's child process,
// as the benchmark binary does, so the smoke test drives the real
// parent/child path.
func TestMain(m *testing.M) {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	os.Exit(m.Run())
}

// repoRoot is the checkout the tests measure: this module's parent.
const repoRoot = ".."

func TestLayerTableCoversInternal(t *testing.T) {
	entries, err := os.ReadDir(filepath.Join(repoRoot, "internal"))
	if err != nil {
		t.Fatal(err)
	}
	known := map[string]bool{}
	for _, l := range layers {
		known[l] = true
	}
	dirs := map[string]bool{}
	for _, e := range entries {
		if !e.IsDir() {
			continue
		}
		dirs[e.Name()] = true
		if _, ok := internalLayers[e.Name()]; !ok {
			t.Errorf("internal/%s has no entry in internalLayers", e.Name())
		}
	}
	for pkg, layer := range internalLayers {
		if !dirs[pkg] {
			t.Errorf("internalLayers names internal/%s, which does not exist", pkg)
		}
		if !known[layer] {
			t.Errorf("internal/%s maps to unknown layer %q", pkg, layer)
		}
	}
	for pkg, layer := range stdLayers {
		if !known[layer] {
			t.Errorf("%s maps to unknown layer %q", pkg, layer)
		}
	}
}

// TestBucketTraces pins the attribution rules on a committed excerpt of
// real `go tool pprof -traces` output.
func TestBucketTraces(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := bucketTraces(f)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"x509":   0.01, // crypto/ecdsa verification under crypto/x509
		"tls":    0.01, // crypto/ecdsa signing under the crypto/tls handshake
		"geo":    0.15, // net/netip under geo.(*Registry).Lookup
		"netsim": 0.01, // math/rand seeding under netsim.(*World).flowRNG
		"gc":     0.01, // runtime.gcBgMarkWorker
		"other":  0.01, // the scheduler, under no table package
	}
	for layer, secs := range want {
		if math.Abs(got[layer]-secs) > 1e-9 {
			t.Errorf("layer %s: got %.4fs, want %.4fs", layer, got[layer], secs)
		}
	}
	for layer, secs := range got {
		if _, ok := want[layer]; !ok {
			t.Errorf("unexpected layer %s with %.4fs", layer, secs)
		}
	}
}

func TestParseSeconds(t *testing.T) {
	for in, want := range map[string]float64{"10ms": 0.01, "1.50s": 1.5} {
		if got, err := parseSeconds(in); err != nil || math.Abs(got-want) > 1e-12 {
			t.Errorf("parseSeconds(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	for _, in := range []string{"ten", "2mins", "ms"} {
		if _, err := parseSeconds(in); err == nil {
			t.Errorf("parseSeconds accepted %q", in)
		}
	}
}

func TestPackageOf(t *testing.T) {
	for fn, want := range map[string]string{
		"dnsencryption.info/doe/internal/geo.(*Registry).Lookup":                      "dnsencryption.info/doe/internal/geo",
		"dnsencryption.info/doe/internal/runner.MapCtx[go.shape.struct":               "dnsencryption.info/doe/internal/runner",
		"dnsencryption.info/doe/internal/core.(*Study).GenerateTraffic.func1":         "dnsencryption.info/doe/internal/core",
		"crypto/x509.(*Certificate).Verify":                                           "crypto/x509",
		"vendor/golang.org/x/crypto/chacha20poly1305.(*chacha20poly1305).sealGeneric": "vendor/golang.org/x/crypto/chacha20poly1305",
		"runtime.mallocgc": "runtime",
		"main.main":        "main",
	} {
		if got := packageOf(fn); got != want {
			t.Errorf("packageOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestGoldensCoverEveryExperiment(t *testing.T) {
	for _, w := range workloads {
		g, err := loadGoldens(options{seed: defaultSeed, root: repoRoot}, w)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		want := len(w.experiments)
		if w.campaign {
			want = 1
		}
		if len(g) != want {
			t.Errorf("%s: %d golden sections, want %d", w.name, len(g), want)
		}
	}
}

func TestCounterSums(t *testing.T) {
	text := strings.Join([]string{
		"# TYPE doe_resolver_attempts_total counter",
		`doe_resolver_attempts_total{proto="dot"} 5`,
		`doe_resolver_attempts_total{proto="doh"} 3`,
		"# TYPE doe_resolver_exchanges_total counter",
		`doe_resolver_exchanges_total{outcome="error",proto="dot"} 1`,
		`doe_resolver_exchanges_total{outcome="ok",proto="dot"} 4`,
		`doe_resolver_exchanges_total{outcome="ok",proto="doh"} 3`,
		"# TYPE doe_resolver_exchange_latency histogram",
		`doe_resolver_exchange_latency_count{proto="dot"} 9`,
	}, "\n")
	sums := counterSums(text)
	if sums["resolver_attempts_total"] != 8 || sums["resolver_exchanges_total"] != 8 || sums[`resolver_exchanges_total{outcome="ok"}`] != 7 {
		t.Fatalf("counterSums = %v", sums)
	}
	if _, ok := sums["resolver_exchange_latency_count"]; ok {
		t.Error("histogram series counted as a counter")
	}
	if r := ratio(sums[`resolver_exchanges_total{outcome="ok"}`], sums["resolver_attempts_total"]); r != 7.0/8 {
		t.Errorf("ok per attempt = %v", r)
	}
}

// TestSmoke runs every workload at miniature size through the whole
// harness, end to end and traced: child processes, profiles, pprof
// bucketing, probes and the curated suite. run itself fails when a metric
// BENCHMARK.json names is not produced.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the curated suite")
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			res, err := run(options{workload: w.name, seed: 1, trace: trace, root: repoRoot, smoke: true})
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Attempted == 0 {
				t.Errorf("%s trace=%v: %d of %d checks failed", w.name, trace, res.Failed, res.Attempted)
			}
			if !trace {
				continue
			}
			var profiled float64
			for _, l := range layers {
				profiled += res.Metrics["layer."+l+".cpu_s"].Value
			}
			if profiled <= 0 {
				t.Errorf("%s: the traced repetition's profile has no samples", w.name)
			}
		}
	}
}
