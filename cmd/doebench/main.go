// Command doebench runs the repository's curated performance benchmark set
// with -benchmem and emits a machine-readable snapshot (BENCH_<pr>.json) of
// ns/op, B/op and allocs/op per benchmark, plus the heap high-water mark of
// an in-process miniature study run (mem_high_water_bytes). Given a previous
// trajectory file it diffs the two: allocs/op regressions beyond -threshold
// and memory high-water growth beyond -mem-threshold fail the run (exit 1);
// ns/op changes are advisory only — wall-clock time depends on the host,
// allocation counts and steady-state heap footprint do not (much).
//
// Usage:
//
//	go run ./cmd/doebench -o BENCH_5.json              # full measurement
//	go run ./cmd/doebench -smoke                       # 1-iteration CI gate
//	go run ./cmd/doebench -o BENCH_5.json -prev BENCH_4.json -threshold 0.10
//
// Exit status: 0 on success, 1 on allocs/op or memory regression, 2 on
// driver errors.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"dnsencryption.info/doe/internal/core"
)

// suite lists the curated benchmarks: the steady-state exchange paths whose
// allocation budgets DESIGN.md §9 pins, and the wire-codec micro-benchmarks
// underneath them. One entry per package keeps `go test` invocations cheap.
var suite = []struct {
	pkg   string
	bench string
}{
	{".", "^(BenchmarkSteadyStateDoTExchange|BenchmarkSteadyStateDoHExchange|BenchmarkSteadyStateDoQExchange|BenchmarkSteadyStateTCPExchange|BenchmarkSteadyStateDoTExchangeInflight8|BenchmarkSteadyStateDoHExchangeInflight8|BenchmarkSteadyStateDoQExchangeInflight8|BenchmarkSteadyStateTCPExchangeInflight8|BenchmarkWirePack|BenchmarkWireUnpack|BenchmarkSimTunnelRoundTrip)$"},
	{"./internal/dnswire", "^(BenchmarkNewIDParallel|BenchmarkIDGenParallel|BenchmarkAppendPackTCP|BenchmarkReadTCPAppend|BenchmarkUnpackInto)$"},
}

// Result is one benchmark's measurement.
type Result struct {
	Pkg      string  `json:"pkg"`
	Iters    int64   `json:"iters"`
	NsPerOp  float64 `json:"ns_per_op"`
	BPerOp   int64   `json:"bytes_per_op"`
	AllocsOp int64   `json:"allocs_per_op"`
}

// Snapshot is the BENCH_<pr>.json schema: benchmark name (module-relative,
// GOMAXPROCS suffix stripped) to measurement, plus the study-run heap
// high-water mark. MemHighWaterBytes is 0 when -mem=false (and omitted
// from the JSON), which also disables the memory gate on diff.
type Snapshot struct {
	Benchmarks        map[string]Result `json:"benchmarks"`
	MemHighWaterBytes uint64            `json:"mem_high_water_bytes,omitempty"`
	// CampaignMemHighWaterBytes is the heap high-water of a streaming scale
	// campaign over CampaignNodes generated vantages (-campaign-nodes). The
	// diff gates it only when both snapshots ran the same population.
	CampaignMemHighWaterBytes uint64 `json:"campaign_mem_high_water_bytes,omitempty"`
	CampaignNodes             int    `json:"campaign_nodes,omitempty"`
}

// benchLine matches `BenchmarkName-8  1234  56.7 ns/op  89 B/op  10 allocs/op`.
var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+(\d+)\s+([\d.]+) ns/op(?:\s+(\d+) B/op\s+(\d+) allocs/op)?`)

func main() {
	var (
		out          = flag.String("o", "", "write the JSON snapshot to this file")
		prev         = flag.String("prev", "", "previous trajectory file to diff against")
		threshold    = flag.Float64("threshold", 0.10, "allowed fractional allocs/op growth before a regression fails the run")
		smoke        = flag.Bool("smoke", false, "one benchmark iteration per target: proves the harness and every curated benchmark still run")
		benchtime    = flag.String("benchtime", "", "override -benchtime for the full run")
		mem          = flag.Bool("mem", true, "measure the heap high-water mark of an in-process miniature study run")
		memThreshold = flag.Float64("mem-threshold", 0.50, "allowed fractional mem_high_water_bytes growth before a regression fails the run")
		campNodes    = flag.Int("campaign-nodes", 0, "measure the heap high-water mark of a streaming scale campaign over this many generated vantages (0 = skip)")
		noBench      = flag.Bool("no-bench", false, "skip the benchmark suite (memory measurements only)")
	)
	flag.Parse()

	snap := Snapshot{Benchmarks: make(map[string]Result)}
	if *noBench {
		suite = nil
	}
	for _, s := range suite {
		args := []string{"test", "-run", "^$", "-bench", s.bench, "-benchmem", s.pkg}
		switch {
		case *smoke:
			args = append(args, "-benchtime", "1x")
		case *benchtime != "":
			args = append(args, "-benchtime", *benchtime)
		}
		cmd := exec.Command("go", args...)
		cmd.Stderr = os.Stderr
		raw, err := cmd.Output()
		if err != nil {
			fmt.Fprintf(os.Stderr, "doebench: go %s: %v\n%s", strings.Join(args, " "), err, raw)
			os.Exit(2)
		}
		if err := parseInto(snap.Benchmarks, s.pkg, string(raw)); err != nil {
			fmt.Fprintf(os.Stderr, "doebench: %v\n", err)
			os.Exit(2)
		}
	}
	if len(snap.Benchmarks) == 0 && !*noBench {
		fmt.Fprintln(os.Stderr, "doebench: no benchmark results parsed")
		os.Exit(2)
	}
	for name, r := range snap.Benchmarks {
		fmt.Printf("%-40s %12.1f ns/op %8d B/op %6d allocs/op\n", name, r.NsPerOp, r.BPerOp, r.AllocsOp)
	}

	if *mem {
		hw, err := measureMemHighWater(*smoke)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doebench: memory measurement: %v\n", err)
			os.Exit(2)
		}
		snap.MemHighWaterBytes = hw
		fmt.Printf("%-40s %12d bytes heap high-water\n", "study-run", hw)
	}

	if *campNodes > 0 {
		hw, err := measureCampaignHighWater(*campNodes)
		if err != nil {
			fmt.Fprintf(os.Stderr, "doebench: campaign measurement: %v\n", err)
			os.Exit(2)
		}
		snap.CampaignMemHighWaterBytes = hw
		snap.CampaignNodes = *campNodes
		fmt.Printf("%-40s %12d bytes heap high-water (%d vantages)\n", "scale-campaign", hw, *campNodes)
	}

	if *out != "" {
		enc, err := json.MarshalIndent(snap, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "doebench: encoding snapshot: %v\n", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*out, append(enc, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "doebench: writing %s: %v\n", *out, err)
			os.Exit(2)
		}
	}

	if *prev != "" {
		if !diff(*prev, snap, *threshold, *memThreshold) {
			os.Exit(1)
		}
	}
}

// parseInto extracts benchmark lines from go test output. Smoke runs report
// no B/op columns when -benchmem is off; with -benchmem they are always
// present, so missing columns are a parse error.
func parseInto(dst map[string]Result, pkg, output string) error {
	found := false
	for _, line := range strings.Split(output, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		iters, _ := strconv.ParseInt(m[2], 10, 64)
		ns, _ := strconv.ParseFloat(m[3], 64)
		if m[4] == "" {
			return fmt.Errorf("benchmark %s missing -benchmem columns: %q", m[1], line)
		}
		bop, _ := strconv.ParseInt(m[4], 10, 64)
		aop, _ := strconv.ParseInt(m[5], 10, 64)
		dst[m[1]] = Result{Pkg: pkg, Iters: iters, NsPerOp: ns, BPerOp: bop, AllocsOp: aop}
		found = true
	}
	if !found {
		return fmt.Errorf("no benchmark lines in output for %s", pkg)
	}
	return nil
}

// measureMemHighWater runs the miniature study in-process and tracks the
// heap high-water mark with a background MemStats sampler (the same reading
// obs.SampleMemStats exposes at run time). The smoke shrink mirrors the
// chaos matrix config, so it exercises every experiment in a few seconds;
// the full run uses the unshrunken test config — the one the trajectory
// gate compares across PRs. Absolute bytes depend on GC pacing, hence the
// generous default -mem-threshold; the gate exists to catch step changes
// (per-node result materialization, unbounded buffering), not noise.
func measureMemHighWater(smoke bool) (uint64, error) {
	cfg := core.TestConfig()
	if smoke {
		cfg.ScanRounds = 2
		cfg.GlobalNodes = 24
		cfg.CensoredNodes = 12
		cfg.PerfNodes = 6
		cfg.PerfQueriesReused = 4
		cfg.PerfQueriesFresh = 4
	}
	s, err := core.NewStudy(cfg)
	if err != nil {
		return 0, err
	}
	defer s.Close()
	return trackHeapHighWater(func() error { return s.RunAll(io.Discard) })
}

// measureCampaignHighWater runs the streaming scale campaign over nodes
// generated vantages and tracks its heap high-water. This is the gate on
// the DESIGN.md §15 contract: campaign memory is O(workers·accumulator +
// cache cap), so the high-water must stay flat as -campaign-nodes grows —
// any O(population) state (per-node result slices, unbounded query logs,
// leaked per-connection timers) shows up here as a step change.
func measureCampaignHighWater(nodes int) (uint64, error) {
	cfg := core.DefaultScaleConfig()
	cfg.Nodes = nodes
	c, err := core.NewScaleCampaign(cfg)
	if err != nil {
		return 0, err
	}
	defer c.Close()
	return trackHeapHighWater(func() error {
		_, err := c.Run(context.Background())
		return err
	})
}

// trackHeapHighWater runs fn under a background MemStats sampler (the same
// reading obs.SampleMemStats exposes at run time) and returns the peak
// HeapAlloc observed.
func trackHeapHighWater(fn func() error) (uint64, error) {
	runtime.GC()
	var peak atomic.Uint64
	sample := func() {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		for {
			cur := peak.Load()
			if ms.HeapAlloc <= cur || peak.CompareAndSwap(cur, ms.HeapAlloc) {
				return
			}
		}
	}
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				sample()
			}
		}
	}()
	runErr := fn()
	sample()
	close(stop)
	<-done
	return peak.Load(), runErr
}

// diff compares the run against a previous trajectory file. allocs/op may
// grow by the threshold fraction (plus one allocation of absolute slack, so
// single-digit counts don't flap); beyond that the run fails. The heap
// high-water mark may grow by memThreshold when both snapshots carry one.
// ns/op movement is reported but never fails the run.
func diff(prevPath string, cur Snapshot, threshold, memThreshold float64) bool {
	raw, err := os.ReadFile(prevPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doebench: reading %s: %v\n", prevPath, err)
		os.Exit(2)
	}
	var prev Snapshot
	if err := json.Unmarshal(raw, &prev); err != nil {
		fmt.Fprintf(os.Stderr, "doebench: parsing %s: %v\n", prevPath, err)
		os.Exit(2)
	}
	ok := true
	for name, p := range prev.Benchmarks {
		c, exists := cur.Benchmarks[name]
		if !exists {
			fmt.Printf("doebench: %s present in %s but not in this run (renamed or dropped)\n", name, prevPath)
			continue
		}
		limit := int64(float64(p.AllocsOp)*(1+threshold)) + 1
		if c.AllocsOp > limit {
			fmt.Printf("doebench: REGRESSION %s allocs/op %d -> %d (limit %d)\n", name, p.AllocsOp, c.AllocsOp, limit)
			ok = false
		} else if c.AllocsOp != p.AllocsOp {
			fmt.Printf("doebench: %s allocs/op %d -> %d\n", name, p.AllocsOp, c.AllocsOp)
		}
		if p.NsPerOp > 0 {
			change := (c.NsPerOp - p.NsPerOp) / p.NsPerOp * 100
			if change > 20 || change < -20 {
				fmt.Printf("doebench: advisory: %s ns/op %.1f -> %.1f (%+.0f%%)\n", name, p.NsPerOp, c.NsPerOp, change)
			}
		}
	}
	switch {
	case prev.MemHighWaterBytes == 0 || cur.MemHighWaterBytes == 0:
		// One side has no memory column (pre-gate trajectory file, or a run
		// with -mem=false): nothing to compare.
	default:
		limit := uint64(float64(prev.MemHighWaterBytes) * (1 + memThreshold))
		if cur.MemHighWaterBytes > limit {
			fmt.Printf("doebench: REGRESSION mem_high_water_bytes %d -> %d (limit %d)\n",
				prev.MemHighWaterBytes, cur.MemHighWaterBytes, limit)
			ok = false
		} else if cur.MemHighWaterBytes != prev.MemHighWaterBytes {
			fmt.Printf("doebench: mem_high_water_bytes %d -> %d\n",
				prev.MemHighWaterBytes, cur.MemHighWaterBytes)
		}
	}
	switch {
	case prev.CampaignNodes == 0 || cur.CampaignNodes == 0:
		// One side did not run the scale campaign: nothing to compare.
	case prev.CampaignNodes != cur.CampaignNodes:
		fmt.Printf("doebench: campaign populations differ (%d vs %d vantages); campaign memory not gated\n",
			prev.CampaignNodes, cur.CampaignNodes)
	default:
		limit := uint64(float64(prev.CampaignMemHighWaterBytes) * (1 + memThreshold))
		if cur.CampaignMemHighWaterBytes > limit {
			fmt.Printf("doebench: REGRESSION campaign_mem_high_water_bytes %d -> %d (limit %d)\n",
				prev.CampaignMemHighWaterBytes, cur.CampaignMemHighWaterBytes, limit)
			ok = false
		} else if cur.CampaignMemHighWaterBytes != prev.CampaignMemHighWaterBytes {
			fmt.Printf("doebench: campaign_mem_high_water_bytes %d -> %d\n",
				prev.CampaignMemHighWaterBytes, cur.CampaignMemHighWaterBytes)
		}
	}
	return ok
}
