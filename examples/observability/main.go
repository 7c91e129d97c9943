// Observability: run the miniature study with telemetry AND fault
// injection on, then inspect what the recorder captured — the experiment
// overview of the span tree, the full subtree of one lookup the injector
// perturbed (faults annotate the exact span they hit, retries appear as
// children), and the deterministic metric snapshot. Spans are charged
// from the simulation's virtual clock, never wall time, so every line
// printed here is byte-identical on every run and at any worker count.
package main

import (
	"fmt"
	"io"
	"log"
	"strings"

	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/obs"
)

func main() {
	// 1. The miniature study with telemetry on and a harsh fault profile:
	// SYN drops, refusals, handshake cuts, resets. Telemetry is opt-in
	// (Config.Telemetry) and never perturbs measurements — the report with
	// telemetry is the report without it plus one appended section.
	cfg := core.TestConfig()
	cfg.Telemetry = true
	cfg.Faults = core.FaultsConfig{Profile: "harsh", Seed: 1}
	cfg.Workers = 8

	study, err := core.NewStudy(cfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := study.RunAll(io.Discard); err != nil {
		log.Fatal(err)
	}

	// 2. The trace is a tree: study → exp:<id> → campaigns / sampling →
	// per-node spans → lookups → dials, exchanges, retries. The overview is
	// just the top two levels.
	recs := study.Obs.Records()
	fmt.Printf("recorded %d spans; the experiment overview:\n\n", len(recs))
	fmt.Print(obs.RenderTree(prune(recs, 2)))

	// 3. Faults annotate the span they hit. Find the first lookup the
	// injector perturbed and render its whole subtree: the fault event, the
	// retry:<n> children the resolver burned recovering, each xchg with its
	// virtual cost, and the outcome attributes.
	for _, rec := range recs {
		if !hasFault(rec) {
			continue
		}
		fmt.Printf("first faulted lookup (%s):\n\n", rec.Path)
		fmt.Print(obs.RenderTree(subtree(recs, rec.Path)))
		break
	}

	// 4. The deterministic metric snapshot — the same text RunAll appends
	// to the report as "== telemetry:". Volatile families (per-worker
	// shares, inflight high-water) are excluded here so the bytes do not
	// depend on the worker count; pass -metrics to any binary to see them.
	fmt.Printf("\nchaos counters from the deterministic snapshot:\n\n")
	for _, line := range strings.Split(study.Obs.Metrics().Snapshot(false), "\n") {
		if strings.HasPrefix(line, "faults_injected_total") ||
			strings.HasPrefix(line, "resolver_retries_total") ||
			strings.HasPrefix(line, "resolver_recovered_total") {
			fmt.Println(line)
		}
	}

	// 5. The streaming sketches: log-spaced-bucket latency distributions
	// that every worker records into the one study registry. A sketch is
	// integer bucket counts, and adding counts commutes, which is why
	// these quantiles are also byte-identical at any worker count.
	fmt.Printf("\nquery-latency sketches (recorded by %d workers):\n\n", cfg.Workers)
	for _, line := range strings.Split(study.Obs.Metrics().Snapshot(false), "\n") {
		if strings.HasPrefix(line, "vantage_query_latency_sketch") {
			fmt.Println(line)
		}
	}

	// 6. Campaign progress: the same done/total counters obs.DebugHandler
	// serves live as JSON on /progress while a run is in flight. After the
	// run every phase reads done == total.
	fmt.Printf("\nfinal phase progress (live on /progress during a run):\n\n")
	for _, ph := range study.Obs.Progress() {
		fmt.Printf("%-14s %d/%d\n", ph.Name, ph.Done, ph.Total)
	}
	fmt.Printf("\nrun this again, or with any -workers value: same bytes.\n")
}

// prune keeps records at most maxDepth levels below the root.
func prune(recs []obs.Record, maxDepth int) []obs.Record {
	var out []obs.Record
	for _, r := range recs {
		if strings.Count(r.Path, "/") <= maxDepth {
			out = append(out, r)
		}
	}
	return out
}

// subtree keeps the span at path and everything beneath it.
func subtree(recs []obs.Record, path string) []obs.Record {
	var out []obs.Record
	for _, r := range recs {
		if r.Path == path || strings.HasPrefix(r.Path, path+"/") {
			out = append(out, r)
		}
	}
	return out
}

// hasFault reports whether the injector stamped a fault event on rec.
func hasFault(rec obs.Record) bool {
	for _, ev := range rec.Events {
		if strings.HasPrefix(ev, "fault:") {
			return true
		}
	}
	return false
}
