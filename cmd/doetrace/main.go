// Command doetrace works with the JSONL span traces the other binaries
// write via -trace: it validates the schema, renders the span tree for
// humans, and byte-compares a trace against a pinned golden.
//
//	doetrace trace.jsonl                   # validate schema and structure
//	doetrace -render trace.jsonl           # print the indented span tree
//	doetrace -diff golden.jsonl trace.jsonl # validate both, then byte-compare
//
// When -diff finds the traces differ, it prints how many records only the
// golden has and how many only the actual has, per span family, before
// the first differing line, and exits non-zero.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"sort"
	"strings"

	"dnsencryption.info/doe/internal/obs"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("doetrace: ")
	render := flag.Bool("render", false, "print the trace as an indented span tree")
	diff := flag.Bool("diff", false, "compare two traces byte-for-byte (args: golden actual)")
	flag.Parse()

	switch {
	case *diff:
		if flag.NArg() != 2 {
			log.Fatalf("-diff needs exactly two arguments: golden actual")
		}
		diffTraces(flag.Arg(0), flag.Arg(1))
	case flag.NArg() == 1:
		recs := load(flag.Arg(0))
		if *render {
			fmt.Print(obs.RenderTree(recs))
			return
		}
		fmt.Printf("%s: valid trace, %d spans\n", flag.Arg(0), len(recs))
	default:
		log.Fatalf("usage: doetrace [-render] trace.jsonl | doetrace -diff golden.jsonl trace.jsonl")
	}
}

// load reads and validates one trace file, exiting on any schema or
// structure violation.
func load(path string) []obs.Record {
	f, err := os.Open(path)
	if err != nil {
		log.Fatalf("%v", err)
	}
	defer f.Close()
	recs, err := obs.ReadTrace(f)
	if err != nil {
		log.Fatalf("%s: %v", path, err)
	}
	return recs
}

// diffTraces validates both files and then compares raw bytes. On a
// mismatch it prints the per-family record counts only one side has, then
// reports the first differing line: the determinism contract is
// byte-level, not just structural.
func diffTraces(goldenPath, actualPath string) {
	load(goldenPath)
	load(actualPath)
	golden, err := os.ReadFile(goldenPath)
	if err != nil {
		log.Fatalf("%v", err)
	}
	actual, err := os.ReadFile(actualPath)
	if err != nil {
		log.Fatalf("%v", err)
	}
	if bytes.Equal(golden, actual) {
		fmt.Printf("traces identical (%d bytes)\n", len(golden))
		return
	}
	writeFamilyDeltas(os.Stdout, familyDeltas(golden, actual))
	gl := bytes.Split(golden, []byte("\n"))
	al := bytes.Split(actual, []byte("\n"))
	for i := 0; i < len(gl) || i < len(al); i++ {
		var g, a []byte
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(al) {
			a = al[i]
		}
		if !bytes.Equal(g, a) {
			log.Fatalf("traces differ at line %d:\n  golden: %s\n  actual: %s", i+1, g, a)
		}
	}
	log.Fatalf("traces differ in length: golden %d bytes, actual %d bytes", len(golden), len(actual))
}

// familyDelta counts the records of one span family that only the golden
// or only the actual trace holds.
type familyDelta struct {
	family                 string
	onlyGolden, onlyActual int
}

// familyDeltas takes the multiset difference of the two traces' lines and
// groups what is left by span family, the first three segments of the
// record's path (e.g. study/exp:fig9/perf-sampling), sorted by family.
func familyDeltas(golden, actual []byte) []familyDelta {
	lines := make(map[string]int)
	for _, l := range bytes.Split(golden, []byte("\n")) {
		lines[string(l)]++
	}
	for _, l := range bytes.Split(actual, []byte("\n")) {
		lines[string(l)]--
	}
	byFamily := make(map[string]*familyDelta)
	for line, n := range lines {
		if n == 0 || line == "" {
			continue
		}
		var rec struct {
			Path string `json:"path"`
		}
		// Both traces passed validation, so every line decodes.
		_ = json.Unmarshal([]byte(line), &rec)
		segs := strings.SplitN(rec.Path, "/", 4)
		family := strings.Join(segs[:min(3, len(segs))], "/")
		d := byFamily[family]
		if d == nil {
			d = &familyDelta{family: family}
			byFamily[family] = d
		}
		if n > 0 {
			d.onlyGolden += n
		} else {
			d.onlyActual -= n
		}
	}
	out := make([]familyDelta, 0, len(byFamily))
	for _, d := range byFamily {
		out = append(out, *d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].family < out[j].family })
	return out
}

// writeFamilyDeltas prints one row per family: the records only the
// golden has, those only the actual has, and the family.
func writeFamilyDeltas(w io.Writer, deltas []familyDelta) {
	fmt.Fprintf(w, "%7s %7s  %s\n", "golden", "actual", "span family")
	for _, d := range deltas {
		fmt.Fprintf(w, "%7d %7d  %s\n", d.onlyGolden, d.onlyActual, d.family)
	}
}
