package core

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsencryption.info/doe/internal/obs"
)

// TestGoldenTraceSmall pins the telemetry trace of the miniature study to
// the committed golden, byte for byte, at two worker counts: the same
// guarantee the reports carry, extended to the span tree. The same runs pin
// the deterministic metric snapshot (the report's "== telemetry:" section
// after its span count) to testdata/metrics_small.txt. The goldens are
// regenerated with
//
//	go run ./cmd/doereport -small -trace internal/core/testdata/trace_small.jsonl -o /dev/null
//	go run ./cmd/doereport -small -trace /dev/null | sed -e '1,/^trace spans: /d' -e '$d' > internal/core/testdata/metrics_small.txt
//
// (any -workers value produces the same bytes; `make trace-smoke` diffs a
// fresh trace against the first file too).
func TestGoldenTraceSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("two full miniature studies take ~1 min")
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "trace_small.jsonl"))
	if err != nil {
		t.Fatalf("reading committed golden trace: %v", err)
	}
	goldenMetrics, err := os.ReadFile(filepath.Join("testdata", "metrics_small.txt"))
	if err != nil {
		t.Fatalf("reading committed golden metric snapshot: %v", err)
	}
	for _, workers := range []int{1, 8} {
		workers := workers
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			t.Parallel()
			cfg := TestConfig()
			cfg.Workers = workers
			cfg.Telemetry = true
			s, err := NewStudy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.RunAll(io.Discard); err != nil {
				t.Fatalf("RunAll: %v", err)
			}
			var b bytes.Buffer
			if err := s.WriteTrace(&b); err != nil {
				t.Fatalf("WriteTrace: %v", err)
			}
			recs, err := obs.ReadTrace(bytes.NewReader(b.Bytes()))
			if err != nil {
				t.Fatalf("trace does not validate: %v", err)
			}
			if len(recs) != s.Obs.SpanCount()+1 {
				t.Errorf("trace has %d records, recorder counts %d spans", len(recs), s.Obs.SpanCount())
			}
			diffReports(t, "golden", string(golden), fmt.Sprintf("workers=%d", workers), b.String())
			diffReports(t, "golden metrics", string(goldenMetrics), fmt.Sprintf("metrics workers=%d", workers),
				s.Obs.Metrics().Snapshot(false))
		})
	}
}

// TestTelemetryKeepsReportsByteIdentical is the tentpole's non-interference
// guarantee on the chaos matrix: with telemetry AND fault injection on,
// the report, the trace and the deterministic metric snapshot are all
// byte-identical across worker counts — and the report is the telemetry-off
// report plus exactly the appended "== telemetry:" section.
func TestTelemetryKeepsReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos matrix rows take ~30s")
	}
	run := func(workers int, telemetry bool) (report, trace, snap string) {
		cfg := matrixConfig()
		cfg.Workers = workers
		cfg.Faults = FaultsConfig{Profile: "harsh", Seed: 1}
		cfg.Telemetry = telemetry
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var b strings.Builder
		if err := s.RunAll(&b); err != nil {
			t.Fatalf("workers=%d telemetry=%v: %v", workers, telemetry, err)
		}
		if !telemetry {
			return b.String(), "", ""
		}
		var tb bytes.Buffer
		if err := s.WriteTrace(&tb); err != nil {
			t.Fatalf("WriteTrace: %v", err)
		}
		return b.String(), tb.String(), s.Obs.Metrics().Snapshot(false)
	}

	r1, t1, s1 := run(1, true)
	r4, t4, s4 := run(4, true)
	r8, t8, s8 := run(8, true)
	diffReports(t, "workers=1", r1, "workers=4", r4)
	diffReports(t, "workers=1", r1, "workers=8", r8)
	diffReports(t, "trace workers=1", t1, "trace workers=4", t4)
	diffReports(t, "trace workers=1", t1, "trace workers=8", t8)
	diffReports(t, "snapshot workers=1", s1, "snapshot workers=4", s4)
	diffReports(t, "snapshot workers=1", s1, "snapshot workers=8", s8)

	if !strings.Contains(r1, "== telemetry: deterministic metrics and trace summary\n") {
		t.Fatal("telemetry-enabled report missing the telemetry section")
	}
	// Faults annotate the trace: the injector must have stamped events on
	// the lookup spans it perturbed.
	if !strings.Contains(t1, `"fault:`) {
		t.Error("chaos trace carries no fault events")
	}
	// Chaos metrics reach the snapshot deterministically — including the
	// streaming sketch family every worker records into.
	for _, want := range []string{"faults_injected_total{kind=", "resolver_retries_total",
		"vantage_lookups_total{", "vantage_query_latency_sketch{"} {
		if !strings.Contains(s1, want) {
			t.Errorf("deterministic snapshot missing %q:\n%s", want, s1)
		}
	}

	// Telemetry never perturbs the measurements: the report with telemetry
	// is the telemetry-off report with only the section appended.
	rOff, _, _ := run(4, false)
	base, _, found := strings.Cut(r1, "== telemetry:")
	if !found {
		t.Fatal("telemetry section marker not found")
	}
	diffReports(t, "telemetry-off", rOff, "telemetry-on minus section", base)
}

// TestTelemetryOffHasNoRecorder guards the default path: without
// Config.Telemetry the study carries no recorder, RunAll emits no
// telemetry section, and WriteTrace refuses.
func TestTelemetryOffHasNoRecorder(t *testing.T) {
	s := study(t)
	if s.Obs != nil {
		t.Fatal("telemetry recorder present with Config.Telemetry off")
	}
	if err := s.WriteTrace(io.Discard); err == nil {
		t.Fatal("WriteTrace succeeded with telemetry off")
	}
}
