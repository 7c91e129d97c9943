// Command hostbench is the repository's host-cost benchmark: it measures
// what the paper's three pipeline stages cost to run (wall time, CPU,
// allocation, resident memory, set-up time), end to end and layer by
// layer, on four workloads that drive core's public entry points.
//
// Usage, from the root of a checkout:
//
//	bash hostbench/run.sh --workload scan --seed 7 --seconds 15 --trace 0
//
// run.sh builds this command from the checkout's source and runs it. The
// last line of standard output is one JSON object: {"correct", "attempted",
// "failed", "metrics"}; the lines before it print every metric with its
// unit and the sha256 of the workload's output. --trace 0 reports the
// end-to-end metrics of BENCHMARK.json, --trace 1 the per-layer ones.
//
// Every repetition of a workload runs in a fresh child process (this
// binary, re-executed) under GOMAXPROCS=2 with Config.Workers=2; a run
// repeats the workload until --seconds have passed, at least three times,
// and reports medians. At the default seed (20190501) each output block
// must equal its committed golden; at any other seed every repetition must
// reproduce the first byte for byte. See README.md for the workloads, the
// metric glossary and the layer table.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

func main() {
	if raw := os.Getenv(childEnv); raw != "" {
		os.Exit(childMain(raw))
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload to run: scan, clients, traffic or campaign")
	flag.Int64Var(&o.seed, "seed", defaultSeed, "input seed; the default seed's outputs are checked against committed goldens")
	flag.Float64Var(&o.seconds, "seconds", 0, "measure for at least this long (0 = run_seconds of BENCHMARK.json)")
	trace := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics")
	flag.Parse()
	o.root = "." // run.sh runs this command from the root of the checkout
	o.trace = *trace == 1
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "hostbench: --trace must be 0 or 1")
		os.Exit(2)
	}

	res, err := run(o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: %v\n", err)
		os.Exit(2)
	}
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-52s %18.6g %s\n", name, m.Value, m.Unit)
	}
	fmt.Printf("output_sha256 %s\n", res.outputSHA)
	fmt.Printf("checks: %d attempted, %d failed\n", res.Attempted, res.Failed)
	enc, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hostbench: encoding result: %v\n", err)
		os.Exit(2)
	}
	fmt.Println(string(enc))
	if !res.Correct {
		os.Exit(1)
	}
}
