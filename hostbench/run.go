package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

// options are one invocation's settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	root     string
	smoke    bool
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of a run.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	outputSHA string
}

// benchFile is the part of BENCHMARK.json the benchmark reads: the metric
// names and units it must report, and the default run length.
type benchFile struct {
	RunSeconds int          `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
	PerLayer   []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

const (
	// minReps is the fewest timed repetitions an end-to-end run reports a
	// median of, however long each takes.
	minReps = 3
	// minSetups is how many constructor calls, each in a fresh process,
	// setup_s is at least a median of: each repetition makes one, and
	// set-up-only children make up the difference.
	minSetups = 9
	// runDeadline stops every child, and the run, before the 180 s a run
	// may take.
	runDeadline = 170 * time.Second
)

func run(o options) (*result, error) {
	root, err := filepath.Abs(o.root) // children run in root, so paths must not be relative
	if err != nil {
		return nil, err
	}
	o.root = root
	raw, err := os.ReadFile(filepath.Join(o.root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var spec benchFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, fmt.Errorf("parsing BENCHMARK.json: %w", err)
	}
	w, ok := workloadByName(o.workload)
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		o.seconds = float64(spec.RunSeconds)
	}
	golden, err := loadGoldens(o, w)
	if err != nil {
		return nil, err
	}
	build := filepath.Join(o.root, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(build, "hostbench-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	ctx, cancel := context.WithTimeout(context.Background(), runDeadline)
	defer cancel()
	r := &runner{ctx: ctx, o: o, tmp: tmp}

	all := map[string]float64{}
	base := childSpec{Mode: modeRun, Workload: w.name, Seed: o.seed, Smoke: o.smoke}
	var untraced, traced []record
	if !o.trace {
		// The set-up-only children run first, which also warms the page
		// cache and CPU before the first timed repetition.
		setups, err := r.setups(base, minSetups-minReps)
		if err != nil {
			return nil, err
		}
		if untraced, err = r.batch(base, o.seconds, minReps); err != nil {
			return nil, err
		}
		for _, rec := range untraced {
			setups = append(setups, rec.Metrics["setup_s"])
		}
		all["setup_s"] = median(setups)
	} else {
		if untraced, err = r.batch(base, o.seconds/2, 1); err != nil {
			return nil, err
		}
		tspec := base
		tspec.Traced = true
		if traced, err = r.batch(tspec, o.seconds/2, 1); err != nil {
			return nil, err
		}
		if err := r.perLayer(all, w, untraced, traced); err != nil {
			return nil, err
		}
	}
	for k, v := range medians(untraced) {
		if _, set := all[k]; !set {
			all[k] = v
		}
	}
	all["runner.idle_frac"] = 1 - all["cpu_s"]/(workers*all["wall_s"])

	res := &result{Metrics: map[string]metricValue{}}
	want := spec.EndToEnd
	if o.trace {
		want = spec.PerLayer
	}
	for _, m := range want {
		v, ok := all[m.Name]
		if !ok {
			return nil, fmt.Errorf("BENCHMARK.json names metric %q, which this run does not produce", m.Name)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	res.Attempted, res.Failed = checkOutputs(w, golden, append(untraced, traced...))
	res.Correct = res.Failed == 0
	res.outputSHA = untraced[0].OutputSHA256
	return res, nil
}

// loadGoldens returns the expected digest of each output section at the
// default seed: the blocks of the workload's committed golden, or of
// report_full.txt for a workload that runs the default config. Other
// seeds, and smoke runs, have no golden (nil).
func loadGoldens(o options, w workload) (map[string]string, error) {
	if o.seed != defaultSeed || o.smoke {
		return nil, nil
	}
	if w.campaign {
		return map[string]string{"campaign": digest(w.golden)}, nil
	}
	report := w.golden
	if report == "" {
		raw, err := os.ReadFile(filepath.Join(o.root, "report_full.txt"))
		if err != nil {
			return nil, err
		}
		report = string(raw)
	}
	blocks := reportBlocks(report)
	golden := map[string]string{}
	for _, id := range w.experiments {
		b, ok := blocks[id]
		if !ok {
			return nil, fmt.Errorf("golden for %s has no block for %s", w.name, id)
		}
		golden[id] = digest(b)
	}
	return golden, nil
}

// reportBlocks splits a full report into its "== <id>: <title>" blocks,
// each running up to the next header.
func reportBlocks(report string) map[string]string {
	blocks := map[string]string{}
	var id string
	var b strings.Builder
	flush := func() {
		if id != "" {
			blocks[id] = b.String()
		}
		b.Reset()
	}
	for _, line := range strings.SplitAfter(report, "\n") {
		if rest, ok := strings.CutPrefix(line, "== "); ok {
			flush()
			id, _, _ = strings.Cut(rest, ":")
		}
		b.WriteString(line)
	}
	flush()
	return blocks
}

// checkOutputs counts the checks over every repetition: each output
// section must match its golden (or, without one, the first repetition's),
// every expected section must be present, and every invariant must hold.
func checkOutputs(w workload, golden map[string]string, recs []record) (attempted, failed int) {
	ids := w.experiments
	if w.campaign {
		ids = []string{"campaign"}
	}
	ref := golden
	if ref == nil {
		ref = map[string]string{}
		for _, s := range recs[0].Sections {
			ref[s.ID] = s.SHA256
		}
	}
	fail := func(rep int, what string) {
		failed++
		fmt.Fprintf(os.Stderr, "hostbench: %s repetition %d: check failed: %s\n", w.name, rep+1, what)
	}
	for i, rec := range recs {
		got := map[string]section{}
		for _, s := range rec.Sections {
			got[s.ID] = s
		}
		for _, id := range ids {
			attempted++
			s, ok := got[id]
			switch {
			case !ok:
				fail(i, id+" produced no output")
			case s.Err != "":
				fail(i, id+": "+s.Err)
			case s.SHA256 != ref[id]:
				fail(i, id+" output differs from the reference")
			}
		}
		for _, c := range rec.Checks {
			attempted++
			if !c.OK {
				fail(i, c.Name)
			}
		}
	}
	return attempted, failed
}

// runner spawns the child processes of one run.
type runner struct {
	ctx context.Context
	o   options
	tmp string
	n   int // children spawned, for unique profile names
}

// batch runs spec in fresh child processes until budget seconds have
// passed and at least min repetitions are done. Smoke runs do one.
func (r *runner) batch(spec childSpec, budget float64, min int) ([]record, error) {
	if r.o.smoke {
		budget, min = 0, 1
	}
	start := time.Now()
	var recs []record
	for len(recs) < min || time.Since(start).Seconds() < budget {
		s := spec
		if s.Traced {
			s.Profile = filepath.Join(r.tmp, fmt.Sprintf("cpu-%d.pprof", r.n))
		}
		rec, err := r.spawn(s)
		if err != nil {
			return nil, err
		}
		rec.profile = s.Profile
		m := rec.Metrics
		fmt.Fprintf(os.Stderr, "hostbench: %s rep %d (traced=%v): setup %.3fs wall %.3fs cpu %.3fs alloc %.4g B max_rss %.4g B\n",
			spec.Workload, len(recs)+1, spec.Traced, m["setup_s"], m["wall_s"], m["cpu_s"], m["alloc_bytes"], m["max_rss_bytes"])
		recs = append(recs, rec)
	}
	return recs, nil
}

// setups runs n set-up-only children and returns their set-up times.
func (r *runner) setups(spec childSpec, n int) ([]float64, error) {
	if r.o.smoke {
		n = 0
	}
	spec.Mode = modeSetup
	var samples []float64
	for i := 0; i < n; i++ {
		rec, err := r.spawn(spec)
		if err != nil {
			return nil, err
		}
		samples = append(samples, rec.Metrics["setup_s"])
	}
	return samples, nil
}

// spawn runs one child process and returns its record, adding the child's
// peak resident set size.
func (r *runner) spawn(spec childSpec) (record, error) {
	r.n++
	raw, err := json.Marshal(spec)
	if err != nil {
		return record{}, err
	}
	exe, err := os.Executable()
	if err != nil {
		return record{}, err
	}
	cmd := r.command(exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(raw), "GOMAXPROCS=2")
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	if err := cmd.Run(); err != nil {
		return record{}, fmt.Errorf("%s child for %s: %w", spec.Mode, spec.Workload, err)
	}
	var rec record
	if err := json.Unmarshal(lastLine(stdout.Bytes()), &rec); err != nil {
		return record{}, fmt.Errorf("%s child for %s: reading record: %w", spec.Mode, spec.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		rec.Metrics["max_rss_bytes"] = float64(ru.Maxrss) * 1024 // Linux reports KiB
	}
	return rec, nil
}

// command builds a child command in its own process group, so that the
// run deadline kills whatever it started too (go run and go test fork).
func (r *runner) command(name string, args ...string) *exec.Cmd {
	cmd := exec.CommandContext(r.ctx, name, args...)
	cmd.Dir = r.o.root
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	return cmd
}

func lastLine(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if i := bytes.LastIndexByte(b, '\n'); i >= 0 {
		return b[i+1:]
	}
	return b
}

// perLayer fills the per-layer metrics that need more than the untraced
// repetitions: CPU by layer from the traced repetitions' profiles, their
// telemetry counts, the tracing overhead, the layer probes and the
// curated benchmark suite.
func (r *runner) perLayer(all map[string]float64, w workload, untraced, traced []record) error {
	var profiles []string
	for _, rec := range traced {
		profiles = append(profiles, rec.profile)
	}
	var out bytes.Buffer
	cmd := r.command("go", append([]string{"tool", "pprof", "-traces", "-symbolize=none"}, profiles...)...)
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("go tool pprof: %w", err)
	}
	secs, err := bucketTraces(&out)
	if err != nil {
		return err
	}
	for _, l := range layers {
		all["layer."+l+".cpu_s"] = secs[l] / float64(len(traced))
	}
	tm := medians(traced)
	for k, v := range tm {
		if strings.HasPrefix(k, "count.") || strings.HasPrefix(k, "ratio.") {
			all[k] = v
		}
	}
	all["trace_overhead_frac"] = tm["wall_s"]/medians(untraced)["wall_s"] - 1

	probes, err := r.spawn(childSpec{Mode: modeProbes, Workload: w.name, Seed: r.o.seed, Smoke: r.o.smoke})
	if err != nil {
		return err
	}
	for k, v := range probes.Metrics {
		if strings.HasPrefix(k, "probe.") {
			all[k] = v
		}
	}
	return r.suite(all)
}

// suite runs the existing curated benchmark set through cmd/doebench and
// copies its ns/op and allocs/op in as bench.<Name>.* metrics, Name
// without its "Benchmark" prefix.
func (r *runner) suite(all map[string]float64) error {
	path := filepath.Join(r.tmp, "suite.json")
	args := []string{"run", "./cmd/doebench", "-mem=false", "-o", path}
	if r.o.smoke {
		args = append(args, "-smoke")
	} else {
		args = append(args, "-benchtime", "200ms")
	}
	cmd := r.command("go", args...)
	cmd.Stdout = os.Stderr // its table is for people; the snapshot is for us
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("curated suite: %w", err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var snap struct {
		Benchmarks map[string]struct {
			NsPerOp  float64 `json:"ns_per_op"`
			AllocsOp float64 `json:"allocs_per_op"`
		} `json:"benchmarks"`
	}
	if err := json.Unmarshal(raw, &snap); err != nil {
		return fmt.Errorf("curated suite snapshot: %w", err)
	}
	if len(snap.Benchmarks) == 0 {
		return errors.New("curated suite snapshot lists no benchmarks")
	}
	for name, b := range snap.Benchmarks {
		name = strings.TrimPrefix(name, "Benchmark")
		all["bench."+name+".ns_per_op"] = b.NsPerOp
		all["bench."+name+".allocs_per_op"] = b.AllocsOp
	}
	return nil
}

// medians returns, for each metric any record carries, the median over
// the records that carry it.
func medians(recs []record) map[string]float64 {
	samples := map[string][]float64{}
	for _, rec := range recs {
		for k, v := range rec.Metrics {
			samples[k] = append(samples[k], v)
		}
	}
	out := make(map[string]float64, len(samples))
	for k, s := range samples {
		out[k] = median(s)
	}
	return out
}

func median(s []float64) float64 {
	s = append([]float64(nil), s...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
