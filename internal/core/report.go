package core

import (
	"fmt"
	"io"
	"time"
)

// Progress receives per-experiment wall-clock timing as experiments run.
// Timing stays out of the report body on purpose: the report is a seeded
// artifact that must be byte-for-byte identical for any worker count, while
// wall time is exactly the thing parallelism changes.
type Progress func(id, title string, elapsed time.Duration)

// RunAll executes every experiment in paper order and writes a full report.
// It returns the first error but keeps going so one failing experiment does
// not mask the rest.
func (s *Study) RunAll(w io.Writer) error {
	var firstErr error
	// The "experiments" phase is the top row of the /progress endpoint;
	// pool-level phases (campaign, perf, scan-sweep, …) register beneath it
	// as runner pools launch. Phase is nil-safe, so telemetry-off runs cost
	// two no-op calls per experiment.
	phase := s.Obs.Phase("experiments")
	phase.AddTotal(int64(len(Experiments())))
	for _, exp := range Experiments() {
		out, err := s.RunExperiment(exp)
		phase.Done(1)
		if err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("%s: %w", exp.ID, err)
			}
			fmt.Fprintf(w, "== %s: %s\nERROR: %v\n\n", exp.ID, exp.Title, err)
			continue
		}
		fmt.Fprintf(w, "== %s: %s\n%s\n", exp.ID, exp.Title, out)
	}
	// The recovery summary only exists under fault injection, so the
	// fault-free report stays byte-identical to its committed golden.
	if s.Faults != nil {
		fmt.Fprintf(w, "== faults: injected faults and retry recovery\n%s\n", s.faultsSummary())
	}
	// Likewise the telemetry section only exists when Config.Telemetry is
	// on; its snapshot excludes volatile families, so the report stays
	// byte-identical across worker counts even with telemetry enabled.
	if s.Obs != nil {
		fmt.Fprintf(w, "== telemetry: deterministic metrics and trace summary\n%s\n", s.telemetrySummary())
	}
	return firstErr
}

// RunExperiment executes one experiment under its own exp:<id> trace span
// (when telemetry is on), so the experiments doereport -only selects
// produce the same trace shape as RunAll.
// Experiments run serially, so exp:<id> spans order by creation and the
// cached stages (scans, campaigns) nest under the experiment that first
// triggered them. If s.Progress is set, it is invoked after the experiment
// with its wall-clock duration.
func (s *Study) RunExperiment(exp Experiment) (string, error) {
	if s.Progress != nil {
		start := time.Now() //doelint:allow walltaint -- reports real runtime of the experiment, not simulated time
		//doelint:allow walltaint -- reports real runtime of the experiment, not simulated time
		defer func() { s.Progress(exp.ID, exp.Title, time.Since(start)) }()
	}
	if s.Obs != nil {
		s.setExpSpan(s.Obs.Root().Start("exp:" + exp.ID))
		defer s.setExpSpan(nil)
	}
	out, err := exp.Run(s)
	if err != nil {
		if sp := s.expSpan; sp != nil {
			sp.Fail(err)
		}
	}
	return out, err
}
