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
//	go run ./cmd/doelint -list             # show registered analyzers
//
// Exit status: 0 when clean, 1 when findings were reported, 2 on driver
// errors (packages failing to load or type-check). There is no findings
// baseline: a justified //doelint:allow directive at the finding is the
// one way to keep a flagged line.
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
