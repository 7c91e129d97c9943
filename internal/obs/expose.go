package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/pprof"
	"sort"
	"strings"
	"time"
)

// PrometheusText renders the full registry in Prometheus text exposition
// format. Durations are exported in seconds as the convention demands;
// the underlying accumulation stays integer microseconds. Sketches export
// as histograms — cumulative le buckets over the log-spaced edges.
func (r *Registry) PrometheusText() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	var b strings.Builder
	for _, f := range fams {
		name := "doe_" + f.name
		switch f.kind {
		case kindCounter:
			fmt.Fprintf(&b, "# TYPE %s counter\n", name)
		case kindGauge:
			fmt.Fprintf(&b, "# TYPE %s gauge\n", name)
		case kindSketch:
			fmt.Fprintf(&b, "# TYPE %s histogram\n", name)
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.insts))
		for k := range f.insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			switch m := f.insts[k].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", name, promLabels(k, "", ""), m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", name, promLabels(k, "", ""), m.Value())
			case *Sketch:
				promSketch(&b, name, k, m)
			}
		}
		f.mu.Unlock()
	}
	return b.String()
}

// promSketch renders one sketch instance as a Prometheus histogram:
// cumulative le-labeled buckets over the sketch edges plus _sum and _count.
func promSketch(b *strings.Builder, name, labels string, s *Sketch) {
	counts, overflow := s.bucketCounts()
	var cum int64
	for i, edge := range sketchBounds {
		cum += counts[i]
		le := fmt.Sprintf("%g", edge.Seconds())
		fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(labels, "le", le), cum)
	}
	fmt.Fprintf(b, "%s_bucket%s %d\n", name, promLabels(labels, "le", "+Inf"), cum+overflow)
	fmt.Fprintf(b, "%s_sum%s %g\n", name, promLabels(labels, "", ""),
		(time.Duration(s.SumUS()) * time.Microsecond).Seconds())
	fmt.Fprintf(b, "%s_count%s %d\n", name, promLabels(labels, "", ""), s.Count())
}

// promLabels renders {k1="v1",k2="v2"[,extraK="extraV"]} from the internal
// escaped label string. Values pass through parseLabelString (undoing the
// registry's own escaping) and are then re-escaped per the Prometheus text
// format, where only `\`, `"` and newline are special — so values
// containing commas, equals signs or quotes survive exposition intact.
func promLabels(ls, extraK, extraV string) string {
	var parts []string
	kv := parseLabelString(ls)
	for i := 0; i+1 < len(kv); i += 2 {
		parts = append(parts, kv[i]+`="`+promEscape(kv[i+1])+`"`)
	}
	if extraK != "" {
		parts = append(parts, extraK+`="`+promEscape(extraV)+`"`)
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// promEscape escapes a label value per the Prometheus text exposition
// format: backslash, double quote, and line feed.
func promEscape(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// DebugHandler serves the live observability surface:
//
//   - /metrics — Prometheus exposition of r's registry; each scrape first
//     runs the samplers (MemStats, bufpool occupancy, …) so volatile
//     gauges are fresh at read time
//   - /progress — campaign progress as JSON: {"phases":[{name,done,total}]}
//   - /healthz — liveness probe, {"status":"ok"}
//   - /debug/pprof/ — the standard net/http/pprof endpoints
//
// The CLI binaries mount it on the -pprof address. Samplers run on the
// scrape goroutine, never inside the simulation, so the virtual-clock
// contract is untouched.
func DebugHandler(r *Recorder, samplers ...func(*Registry)) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		for _, sample := range samplers {
			sample(r.Metrics())
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4")
		fmt.Fprint(w, r.Metrics().PrometheusText())
	})
	mux.HandleFunc("/progress", func(w http.ResponseWriter, _ *http.Request) {
		phases := r.Progress()
		if phases == nil {
			phases = []PhaseStatus{}
		}
		w.Header().Set("Content-Type", "application/json")
		json.NewEncoder(w).Encode(struct {
			Phases []PhaseStatus `json:"phases"`
		}{phases})
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintln(w, `{"status":"ok"}`)
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
