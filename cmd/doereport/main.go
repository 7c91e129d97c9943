// Command doereport runs the end-to-end study — every table and figure of
// the paper, with DoQ columns alongside the paper's DoT/DoH in the
// reachability and performance experiments — and writes the report to
// stdout (or a file). -only runs any stage of the paper by name: scan (§3
// discovery → Table 2, Fig 3, Fig 4, DoH discovery), clients (§4 vantage
// tests → Tables 3–7, Fig 9, Fig 10) or traffic (§5 usage → Fig 11–13 and
// the scanner screening), or any list of experiment ids.
//
//	doereport                    # full-scale study
//	doereport -small             # miniature world (seconds)
//	doereport -only fig9         # a single experiment
//	doereport -only scan,fig11   # a section, then one more experiment
//	doereport -nodes 1000000     # the streaming million-vantage campaign
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
	"time"

	"dnsencryption.info/doe/internal/cli"
	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doereport: ")
	seed := flag.Int64("seed", 0, "override the study seed (0 = default)")
	small := flag.Bool("small", false, "use the miniature test-scale world")
	only := flag.String("only", "", "run only these comma-separated experiment ids and sections (scan, clients, traffic), without the faults and telemetry trailers")
	outPath := flag.String("o", "", "write the report to a file instead of stdout")
	list := flag.Bool("list", false, "list experiment ids and sections and exit")
	workers := flag.Int("workers", 0, "parallel measurement workers (0 = default; report bytes are identical for any value)")
	timing := flag.Bool("timing", false, "log per-experiment wall time to stderr")
	faults := flag.String("faults", "", "fault-injection profile: "+strings.Join(core.FaultProfileNames(), ", "))
	faultSeed := flag.Int64("fault-seed", 0, "fault-schedule seed (independent of the study seed)")
	inflight := flag.Int("inflight", -1, "per-session in-flight queries of the multiplexed perf pass (-1 = default, <2 disables)")
	nodes := flag.Int("nodes", 0, "run the generator-fed scale campaign over this many vantages instead of the study experiments (max "+fmt.Sprint(workload.VantageCapacity)+"; oversized values are an error, never a truncation)")
	tele := cli.TelemetryFlags()
	flag.Parse()

	if *list {
		for _, exp := range core.Experiments() {
			fmt.Printf("%-14s %s\n", exp.ID, exp.Title)
		}
		for _, sec := range core.Sections() {
			fmt.Printf("%-14s section: %s\n", sec.Name, strings.Join(sec.IDs, " "))
		}
		return
	}

	var w io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatalf("creating %s: %v", *outPath, err)
		}
		defer f.Close()
		w = f
	}

	if *nodes != 0 {
		runScale(w, *nodes, *seed, *workers)
		return
	}

	var exps []core.Experiment
	if *only != "" {
		var err error
		if exps, err = core.Select(*only); err != nil {
			log.Fatalf("-only: %v (use -list)", err)
		}
	}

	cfg := core.DefaultConfig()
	if *small {
		cfg = core.TestConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *workers > 0 {
		cfg.Workers = *workers
	}
	if *inflight >= 0 {
		cfg.MuxInFlight = *inflight
	}
	if *faults != "" {
		cfg.Faults = core.FaultsConfig{Profile: *faults, Seed: *faultSeed}
	}
	cfg.Telemetry = tele.Enabled()
	study, err := core.NewStudy(cfg)
	if err != nil {
		log.Fatalf("building study world: %v", err)
	}
	tele.Serve(study)
	if *timing {
		study.Progress = func(id, title string, elapsed time.Duration) {
			log.Printf("%s (%.1fs)", id, elapsed.Seconds())
		}
	}

	// finish flushes the telemetry artifacts, then exits 1 on err: the
	// trace of a failed run is exactly what -trace is for.
	finish := func(err error) {
		if err = errors.Join(err, tele.Finish(study)); err != nil {
			log.Fatal(err)
		}
	}

	if exps == nil {
		if err := study.RunAll(w); err != nil {
			finish(fmt.Errorf("report completed with errors: %w", err))
		}
	}
	for _, exp := range exps {
		out, err := study.RunExperiment(exp)
		if err != nil {
			finish(fmt.Errorf("%s: %w", exp.ID, err))
		}
		fmt.Fprintf(w, "== %s: %s\n%s\n", exp.ID, exp.Title, out)
	}
	finish(nil)
}

// runScale runs the streaming scale campaign over nodes generated
// vantages, querying every protocol (DESIGN.md §15), and writes its report.
func runScale(w io.Writer, nodes int, seed int64, workers int) {
	if err := core.ValidateScaleNodes(nodes); err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	cfg := core.DefaultScaleConfig()
	cfg.Nodes = nodes
	cfg.AllProtos = true
	if seed != 0 {
		cfg.Seed = seed
	}
	if workers > 0 {
		cfg.Workers = workers
	}
	campaign, err := core.NewScaleCampaign(cfg)
	if err != nil {
		log.Fatalf("building scale world: %v", err)
	}
	defer campaign.Close()
	stats, err := campaign.Run(context.Background())
	if err != nil {
		log.Fatalf("scale campaign: %v", err)
	}
	fmt.Fprint(w, campaign.Report(stats))
}
