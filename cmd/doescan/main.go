// Command doescan reproduces §3 of the paper: it builds the study world,
// runs the repeated Internet-wide DoT scans and the DoH URL-corpus
// discovery, and prints Table 2, Figure 3, Figure 4 and the DoH discovery
// summary. (The scanner's one sweep→probe pipeline also runs over DoQ —
// ScanDoQ sweeps UDP/853 with a QUIC Initial and verifies responders with
// RFC 9250 handshakes — but the paper-period scan tables are DoT-only, so
// this command runs the DoT scan.)
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"dnsencryption.info/doe/internal/cli"
	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doescan: ")
	seed := flag.Int64("seed", 0, "override the study seed (0 = default)")
	small := flag.Bool("small", false, "use the miniature test-scale world")
	workers := flag.Int("workers", 0, "parallel measurement workers (0 = default; output is identical for any value)")
	faults := flag.String("faults", "", "fault-injection profile: "+strings.Join(core.FaultProfileNames(), ", "))
	faultSeed := flag.Int64("fault-seed", 0, "fault-schedule seed (independent of the study seed)")
	inflight := flag.Int("inflight", -1, "per-session in-flight queries of the multiplexed perf pass (-1 = default, <2 disables)")
	nodes := flag.Int("nodes", 0, "override the global vantage pool size (max "+fmt.Sprint(workload.VantageCapacity)+"; oversized values are an error, never a truncation)")
	tele := cli.TelemetryFlags()
	flag.Parse()

	cfg := core.DefaultConfig()
	if *small {
		cfg = core.TestConfig()
	}
	if *seed != 0 {
		cfg.Seed = *seed
	}
	if *nodes != 0 {
		if err := core.ValidateScaleNodes(*nodes); err != nil {
			log.Fatalf("-nodes: %v", err)
		}
		cfg.GlobalNodes = *nodes
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

	for _, id := range []string{"table2", "fig3", "fig4", "doh-discovery"} {
		exp, ok := core.ExperimentByID(id)
		if !ok {
			log.Fatalf("unknown experiment %q", id)
		}
		out, err := study.RunExperiment(exp)
		if err != nil {
			if ferr := tele.Finish(study); ferr != nil {
				log.Printf("%v", ferr)
			}
			log.Fatalf("%s: %v", id, err)
		}
		fmt.Fprintf(os.Stdout, "== %s: %s\n%s\n", exp.ID, exp.Title, out)
	}
	if err := tele.Finish(study); err != nil {
		log.Fatalf("%v", err)
	}
}
