// Command doelint runs the repository's static-analysis suite
// (internal/lint) over a module and reports findings. The clock check,
// walltaint, takes its deterministic, simulation and observability package
// lists from lint.DefaultConfig.
//
// Usage:
//
//	go run ./cmd/doelint ./...             # lint the whole module
//	go run ./cmd/doelint -json ./...       # machine-readable findings
//	go run ./cmd/doelint -checks walltaint ./...    # only the clock check
//	go run ./cmd/doelint -checks errwrap,lockbalance ./internal/...
//	go run ./cmd/doelint -checks -walltaint ./...   # everything but walltaint
//	go run ./cmd/doelint -sarif doelint.sarif ./... # SARIF 2.1.0 for CI annotation
//	go run ./cmd/doelint -baseline .doelint-baseline.json ./...
//	go run ./cmd/doelint -list             # show registered analyzers
//
// Exit status: 0 when clean (or every finding is absorbed by the
// baseline), 1 when findings were reported, 2 on driver errors (packages
// failing to load or type-check).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dnsencryption.info/doe/internal/lint"
)

func main() {
	var (
		jsonOut  = flag.Bool("json", false, "emit findings as a JSON array")
		checks   = flag.String("checks", "", "comma-separated checks to run, or -name exclusions (default: all)")
		list     = flag.Bool("list", false, "list registered analyzers and exit")
		dir      = flag.String("dir", ".", "directory to resolve package patterns from")
		sarifOut = flag.String("sarif", "", "write findings as SARIF 2.1.0 to this file")
		baseline = flag.String("baseline", "", "suppress findings recorded in this baseline file")
		updateBl = flag.Bool("update-baseline", false, "rewrite the -baseline file to absorb the current findings and exit 0")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.Analyzers() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	cfg := lint.DefaultConfig()
	if *checks != "" {
		cfg.Checks = splitTrim(*checks)
	}

	findings, err := lint.Run(*dir, flag.Args(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "doelint:", err)
		os.Exit(2)
	}

	if *updateBl {
		if *baseline == "" {
			fmt.Fprintln(os.Stderr, "doelint: -update-baseline requires -baseline")
			os.Exit(2)
		}
		if err := lint.WriteBaseline(*baseline, lint.NewBaseline(findings)); err != nil {
			fmt.Fprintln(os.Stderr, "doelint:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "doelint: baseline %s absorbs %d finding(s)\n", *baseline, len(findings))
		return
	}

	suppressed := 0
	if *baseline != "" {
		b, err := lint.LoadBaseline(*baseline)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doelint:", err)
			os.Exit(2)
		}
		var absorbed []lint.Finding
		findings, absorbed = b.Filter(findings)
		suppressed = len(absorbed)
	}

	if *sarifOut != "" {
		data, err := lint.SARIF(findings)
		if err == nil {
			err = os.WriteFile(*sarifOut, data, 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "doelint:", err)
			os.Exit(2)
		}
	}

	if *jsonOut {
		if findings == nil {
			findings = []lint.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(findings); err != nil {
			fmt.Fprintln(os.Stderr, "doelint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}
	if len(findings) > 0 {
		if !*jsonOut {
			fmt.Fprintf(os.Stderr, "doelint: %d finding(s)\n", len(findings))
		}
		os.Exit(1)
	}
	if suppressed > 0 {
		fmt.Fprintf(os.Stderr, "doelint: clean (%d finding(s) absorbed by baseline)\n", suppressed)
	}
}

func splitTrim(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if part = strings.TrimSpace(part); part != "" {
			out = append(out, part)
		}
	}
	return out
}
