package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"time"

	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/obs"
)

// workers is the Config.Workers of every workload, matched to the
// GOMAXPROCS=2 each child process runs under.
const workers = 2

// defaultSeed is core.DefaultConfig's seed: the one seed whose outputs
// are pinned by committed goldens.
const defaultSeed = 20190501

// campaignNodes sizes the campaign workload: large enough that netsim
// connection set-up and GC dominate it, small enough for a run under 10 s.
const campaignNodes = 60000

// scanRounds is the scan workload's Config.ScanRounds: four of the
// default ten sweeps keep the sweep's cost profile (geo, TLS and x509 in
// the same proportions) at a size that fits three repetitions in a run.
const scanRounds = 4

// workload is one closed-loop batch job: a fixed input that each
// repetition runs to completion in a fresh process.
type workload struct {
	name string
	// experiments are the core experiment ids a study workload runs, in
	// report order; a campaign workload has none.
	experiments []string
	campaign    bool
	// scanRounds overrides Config.ScanRounds when nonzero.
	scanRounds int
	// golden is the committed output at the default seed; empty means the
	// workload runs the default config, whose blocks report_full.txt pins.
	golden string
}

//go:embed testdata/scan_4rounds.txt
var scanGolden string

//go:embed testdata/campaign_60000.txt
var campaignGolden string

// workloads are the benchmark's inputs; BENCHMARK.json lists them with the
// reason for each.
var workloads = []workload{
	{name: "scan", experiments: []string{"table2", "fig3", "fig4", "doh-discovery"}, scanRounds: scanRounds, golden: scanGolden},
	{name: "clients", experiments: []string{"table3", "table4", "table5", "table6", "table7", "fig9", "fig10"}},
	{name: "traffic", experiments: []string{"fig11", "fig12", "fig13", "scan-screen"}},
	{name: "campaign", campaign: true, golden: campaignGolden},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// section is one checked output block of a repetition: an experiment's
// report block, or the campaign report.
type section struct {
	ID     string `json:"id"`
	SHA256 string `json:"sha256"`
	Err    string `json:"err,omitempty"`
}

// check is one invariant a repetition verified about its own output.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
}

// record is what a child process reports to the parent: named metrics of
// its one repetition, plus the output digests and invariants the parent
// checks.
type record struct {
	Metrics  map[string]float64 `json:"metrics"`
	Sections []section          `json:"sections,omitempty"`
	Checks   []check            `json:"checks,omitempty"`
	// OutputSHA256 digests the whole output: for clients and traffic,
	// exactly what doeprobe and doetraffic print at the same seed.
	OutputSHA256 string `json:"output_sha256,omitempty"`

	profile string // set by the parent: where the child wrote its CPU profile
}

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// timer measures the timed section of a repetition: wall, process CPU,
// allocation and GC deltas, and the sampled heap peak.
type timer struct {
	wall time.Time
	cpu  float64
	ms   runtime.MemStats
	heap *heapSampler
}

func startTimer() *timer {
	runtime.GC() // start every repetition from the same collected heap
	t := &timer{heap: startHeapSampler()}
	runtime.ReadMemStats(&t.ms)
	t.cpu = processCPU()
	t.wall = time.Now()
	return t
}

func (t *timer) stop(m map[string]float64) {
	m["wall_s"] = time.Since(t.wall).Seconds()
	m["cpu_s"] = processCPU() - t.cpu
	var end runtime.MemStats
	runtime.ReadMemStats(&end)
	m["alloc_bytes"] = float64(end.TotalAlloc - t.ms.TotalAlloc)
	m["runtime.mallocs"] = float64(end.Mallocs - t.ms.Mallocs)
	m["runtime.gc_cycles"] = float64(end.NumGC - t.ms.NumGC)
	m["runtime.heap_peak_bytes"] = float64(t.heap.stop())
}

// runStudy builds the study world (the timed set-up) and runs the
// workload's experiments (the timed section).
func runStudy(spec childSpec, w workload, setupOnly bool) (record, error) {
	cfg := core.DefaultConfig()
	if spec.Smoke {
		cfg = core.TestConfig()
	}
	cfg.Seed = spec.Seed
	cfg.Workers = workers
	cfg.Telemetry = spec.Traced
	if w.scanRounds != 0 && !spec.Smoke {
		cfg.ScanRounds = w.scanRounds
	}
	rec := record{Metrics: map[string]float64{}}

	t0 := time.Now()
	study, err := core.NewStudy(cfg)
	if err != nil {
		return rec, fmt.Errorf("building study world: %w", err)
	}
	rec.Metrics["setup_s"] = time.Since(t0).Seconds()
	if setupOnly {
		return rec, nil
	}

	stopProfile, err := startProfile(spec.Profile)
	if err != nil {
		return rec, err
	}
	tm := startTimer()
	var (
		ms   runtime.MemStats
		full strings.Builder
	)
	for _, id := range w.experiments {
		exp, ok := core.ExperimentByID(id)
		if !ok {
			return rec, fmt.Errorf("unknown experiment %q", id)
		}
		runtime.ReadMemStats(&ms)
		alloc0, e0 := ms.TotalAlloc, time.Now()
		out, err := study.RunExperiment(exp)
		rec.Metrics["exp."+id+".wall_s"] = time.Since(e0).Seconds()
		runtime.ReadMemStats(&ms)
		rec.Metrics["exp."+id+".alloc_bytes"] = float64(ms.TotalAlloc - alloc0)
		block := fmt.Sprintf("== %s: %s\n%s\n", exp.ID, exp.Title, out)
		full.WriteString(block)
		sec := section{ID: id, SHA256: digest(block)}
		if err != nil {
			sec.Err = err.Error()
		}
		rec.Sections = append(rec.Sections, sec)
	}
	tm.stop(rec.Metrics)
	if err := stopProfile(); err != nil {
		return rec, err
	}
	rec.OutputSHA256 = digest(full.String())
	addCounts(rec.Metrics, study.Obs.Metrics())
	return rec, nil
}

// runCampaign builds the scale campaign (the timed set-up) and runs it
// (the timed section).
func runCampaign(spec childSpec, setupOnly bool) (record, error) {
	cfg := core.DefaultScaleConfig()
	cfg.Seed = spec.Seed
	cfg.Nodes = campaignNodes
	if spec.Smoke {
		cfg.Nodes = 500
	}
	cfg.Workers = workers
	rec := record{Metrics: map[string]float64{}}

	t0 := time.Now()
	c, err := core.NewScaleCampaign(cfg)
	if err != nil {
		return rec, fmt.Errorf("building scale campaign: %w", err)
	}
	rec.Metrics["setup_s"] = time.Since(t0).Seconds()
	defer c.Close()
	if setupOnly {
		return rec, nil
	}

	ctx := context.Background()
	var tele *obs.Recorder
	if spec.Traced {
		tele = obs.NewRecorder("campaign")
		ctx = obs.WithRecorder(ctx, tele)
	}
	stopProfile, err := startProfile(spec.Profile)
	if err != nil {
		return rec, err
	}
	tm := startTimer()
	stats, err := c.Run(ctx)
	tm.stop(rec.Metrics)
	if err := stopProfile(); err != nil {
		return rec, err
	}
	sec := section{ID: "campaign"}
	if err != nil {
		sec.Err = err.Error()
		rec.Sections = append(rec.Sections, sec)
		return rec, nil
	}
	sec.SHA256 = digest(c.Report(stats))
	rec.OutputSHA256 = sec.SHA256
	rec.Sections = append(rec.Sections, sec)
	rec.Checks = append(rec.Checks,
		check{Name: "campaign: Nodes+Skipped equals the population", OK: stats.Nodes+stats.Skipped == cfg.Nodes},
		check{Name: "campaign: no generated node left active", OK: c.Network.ActiveCount() == 0},
	)
	addCounts(rec.Metrics, tele.Metrics())
	return rec, nil
}

// allExperiments lists every experiment id any workload runs, so each
// repetition reports the same exp.* names (zero for experiments it skips).
func allExperiments() []string {
	var ids []string
	for _, w := range workloads {
		ids = append(ids, w.experiments...)
	}
	return ids
}

// addCounts copies the deterministic telemetry counters the per-layer
// metrics name out of reg (nil when telemetry was off, giving zeros).
func addCounts(m map[string]float64, reg *obs.Registry) {
	sum := counterSums(reg.PrometheusText())
	m["count.scanner.sweep_dials"] = sum["scanner_sweep_dials_total"]
	m["count.scanner.dot_probes"] = sum["scanner_probes_total"]
	m["ratio.scanner.dot_per_open"] = ratio(sum[`scanner_probes_total{outcome="resolver"}`], sum[`scanner_sweep_dials_total{outcome="open"}`])
	m["count.vantage.lookups"] = sum["vantage_lookups_total"]
	m["count.resolver.exchanges"] = sum["resolver_exchanges_total"]
	m["count.resolver.retries"] = sum["resolver_retries_total"]
	m["count.resolver.redials"] = sum["resolver_redials_total"]
	m["ratio.resolver.ok_per_attempt"] = ratio(sum[`resolver_exchanges_total{outcome="ok"}`], sum["resolver_attempts_total"])
	m["count.runner.tasks"] = sum["runner_tasks_total"]
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counterSums totals each counter family of a Prometheus text exposition,
// keyed by family name without the "doe_" prefix, and also by family plus
// each single outcome label, as `name{outcome="ok"}`.
func counterSums(text string) map[string]float64 {
	sums := map[string]float64{}
	counters := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			if name, kind, ok := strings.Cut(rest, " "); ok && kind == "counter" {
				counters[name] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 || strings.HasPrefix(line, "#") {
			continue
		}
		series, val := line[:sp], line[sp+1:]
		name, labels, _ := strings.Cut(series, "{")
		if !counters[name] {
			continue
		}
		var v float64
		if _, err := fmt.Sscan(val, &v); err != nil {
			continue
		}
		name = strings.TrimPrefix(name, "doe_")
		sums[name] += v
		for _, l := range strings.Split(strings.TrimSuffix(labels, "}"), ",") {
			if strings.HasPrefix(l, "outcome=") {
				sums[name+"{"+l+"}"] += v
			}
		}
	}
	return sums
}
