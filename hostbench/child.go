package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"
)

// childEnv carries a childSpec to a child process. The parent re-executes
// its own binary with it set, so one build serves both roles (and the test
// binary serves both in tests, via TestMain).
const childEnv = "HOSTBENCH_CHILD"

// Child modes.
const (
	modeRun    = "run"    // set up, then run the workload once, timed
	modeSetup  = "setup"  // set up only: one more setup_s sample
	modeProbes = "probes" // the layer probes on a freshly built study
)

// childSpec is one child process's assignment.
type childSpec struct {
	Mode     string `json:"mode"`
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Smoke    bool   `json:"smoke,omitempty"`
	// Traced turns on Config.Telemetry (the count.* metrics) and, with
	// Profile set, writes a CPU profile of the timed section there.
	Traced  bool   `json:"traced,omitempty"`
	Profile string `json:"profile,omitempty"`
}

// childMain runs one child assignment and writes its record as JSON on
// stdout. It returns the process exit code.
func childMain(raw string) int {
	var spec childSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench child: bad %s: %v\n", childEnv, err)
		return 2
	}
	rec, err := runChild(spec)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench child (%s %s): %v\n", spec.Mode, spec.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintf(os.Stderr, "hostbench child: writing record: %v\n", err)
		return 1
	}
	return 0
}

func runChild(spec childSpec) (record, error) {
	if spec.Mode == modeProbes {
		return runProbes(spec)
	}
	w, ok := workloadByName(spec.Workload)
	if !ok {
		return record{}, fmt.Errorf("unknown workload %q", spec.Workload)
	}
	setupOnly := spec.Mode == modeSetup
	var (
		rec record
		err error
	)
	if w.campaign {
		rec, err = runCampaign(spec, setupOnly)
	} else {
		rec, err = runStudy(spec, w, setupOnly)
	}
	if err != nil || setupOnly {
		return rec, err
	}
	for _, id := range allExperiments() {
		if _, ran := rec.Metrics["exp."+id+".wall_s"]; !ran {
			rec.Metrics["exp."+id+".wall_s"] = 0
			rec.Metrics["exp."+id+".alloc_bytes"] = 0
		}
	}
	return rec, nil
}

// processCPU is the user plus system CPU time this process has used.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// startProfile starts a CPU profile into path ("" profiles nothing) and
// returns the function that stops it and closes the file.
func startProfile(path string) (func() error, error) {
	if path == "" {
		return func() error { return nil }, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("creating CPU profile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("starting CPU profile: %w", err)
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return fmt.Errorf("closing CPU profile: %w", err)
		}
		return nil
	}, nil
}

// heapSampler tracks the peak of live heap objects. It reads
// runtime/metrics, which does not stop the world, every few milliseconds.
type heapSampler struct {
	done chan struct{}
	wg   sync.WaitGroup
	peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler() *heapSampler {
	h := &heapSampler{done: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			h.sample()
			select {
			case <-h.done:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if v := s[0].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak, including a final reading.
func (h *heapSampler) stop() uint64 {
	close(h.done)
	h.wg.Wait()
	h.sample()
	return h.peak
}
