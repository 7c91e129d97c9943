package main

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// modulePrefix is the import-path prefix of the measured module's
// packages; internalLayers is keyed by the path below it.
const modulePrefix = "dnsencryption.info/doe/internal/"

// layers lists the per-layer CPU buckets in report order.
var layers = []string{
	"geo", "netsim", "proxy", "tls", "x509", "transport", "codec", "dnsserver",
	"scanner", "vantage", "runner", "obs", "traffic", "report", "gc", "other",
}

// internalLayers assigns every package under internal/ to a layer. Every
// directory must have an entry (TestLayerTableCoversInternal), so a new
// package cannot fall silently into "other".
var internalLayers = map[string]string{
	"analysis":   "report",
	"bufpool":    "transport",
	"certs":      "x509",
	"cli":        "obs",
	"core":       "report",
	"dnsclient":  "transport",
	"dnscrypt":   "transport",
	"dnsserver":  "dnsserver",
	"dnswire":    "codec",
	"doh":        "transport",
	"doq":        "transport",
	"dot":        "transport",
	"faults":     "netsim", // consulted inside netsim's Dial and Exchange
	"geo":        "geo",
	"lint":       "other", // static analysis; never runs inside a workload
	"netflow":    "traffic",
	"netsim":     "netsim",
	"obs":        "obs",
	"passivedns": "traffic",
	"proxy":      "proxy",
	"resolver":   "transport",
	"runner":     "runner",
	"scandetect": "traffic",
	"scanner":    "scanner",
	"vantage":    "vantage",
	"workload":   "traffic",
}

// stdLayers names the standard-library packages that are layers of their
// own. Other standard packages (net/netip, math/rand, crypto/ecdsa, the
// runtime allocator) are charged to the innermost caller that is in a
// table, which is where an optimisation would remove them.
var stdLayers = map[string]string{
	"crypto/tls":  "tls",
	"crypto/x509": "x509",
}

// gcWorkers are the runtime's background collector goroutines. GC assists
// run on the allocating goroutine and stay with its layer.
var gcWorkers = map[string]bool{
	"runtime.gcBgMarkWorker": true,
	"runtime.bgsweep":        true,
	"runtime.bgscavenge":     true,
}

// packageOf returns the import path of a symbolized Go function name such
// as "dnsencryption.info/doe/internal/geo.(*Registry).Lookup" or
// "runtime.mallocgc".
func packageOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations can name other packages
	}
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOfPackage maps an import path to its layer, or "" when the package
// is in neither table.
func layerOfPackage(pkg string) string {
	if rest, ok := strings.CutPrefix(pkg, modulePrefix); ok {
		return internalLayers[rest]
	}
	return stdLayers[pkg]
}

// layerOfStack assigns one sample, given its frames leaf first.
func layerOfStack(frames []string) string {
	for _, fn := range frames {
		if gcWorkers[fn] {
			return "gc"
		}
	}
	for _, fn := range frames {
		if l := layerOfPackage(packageOf(fn)); l != "" {
			return l
		}
	}
	return "other"
}

// bucketTraces reads `go tool pprof -traces` output and returns the CPU
// seconds charged to each layer. Samples are separated by dashed rules;
// within one, label lines ("key:  value") come first, then the leaf frame
// prefixed by the sample value, then one caller per line.
func bucketTraces(r io.Reader) (map[string]float64, error) {
	out := make(map[string]float64, len(layers))
	var (
		value  float64
		frames []string
		inside bool
	)
	flush := func() {
		if len(frames) > 0 {
			out[layerOfStack(frames)] += value
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inside = true
			continue
		}
		fields := strings.Fields(line)
		if !inside || len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header, blank or label line
		}
		if len(frames) > 0 {
			frames = append(frames, fields[0])
			continue
		}
		if len(fields) < 2 {
			return nil, fmt.Errorf("pprof traces: sample line %q has no frame", line)
		}
		v, err := parseSeconds(fields[0])
		if err != nil {
			return nil, err
		}
		value = v
		frames = append(frames, fields[1])
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("pprof traces: %w", err)
	}
	flush()
	return out, nil
}

// parseSeconds reads a pprof CPU sample value: a multiple of the 10 ms
// sampling period, printed as "10ms" below a second and "1.20s" above.
func parseSeconds(s string) (float64, error) {
	scale := 1.0
	num, ok := strings.CutSuffix(s, "ms")
	if ok {
		scale = 1e-3
	} else if num, ok = strings.CutSuffix(s, "s"); !ok {
		return 0, fmt.Errorf("pprof traces: unreadable sample value %q", s)
	}
	v, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return 0, fmt.Errorf("pprof traces: unreadable sample value %q", s)
	}
	return v * scale, nil
}
