package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Registry holds a study's metrics. All values are int64 (counts, or
// virtual microseconds) because integer addition is commutative — float
// accumulation would make snapshots depend on worker interleaving.
//
// Metrics are deterministic by default: their end-of-run values depend
// only on (seed, config), never on scheduling, and they appear in the
// `== telemetry:` report section and the golden snapshot. Metrics whose
// values are inherently schedule-dependent (per-worker shares, inflight
// high-water marks) must be registered as volatile; they show up only in
// full snapshots (-metrics output, /metrics endpoint). A name has one kind
// and one volatility: registering it again as another panics.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindSketch
)

// family groups every labeled instance of one metric name.
type family struct {
	name     string
	kind     metricKind
	volatile bool
	mu       sync.Mutex
	insts    map[string]any // label string → *Counter | *Gauge | *Sketch
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// lookup returns the family registered under name, creating it on first
// use. A name keeps the kind and volatility it was first registered with:
// asking for another would hide the family from the deterministic snapshot
// or render its values under another kind's TYPE line, so, like a bad
// label key, it panics at the instrumentation site's first call.
func (r *Registry) lookup(name string, kind metricKind, volatile bool) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.fams[name]
	if !ok {
		f = &family{name: name, kind: kind, volatile: volatile, insts: make(map[string]any)}
		r.fams[name] = f
	} else if f.kind != kind || f.volatile != volatile {
		panic(fmt.Sprintf("obs: metric %q is registered as a %s, not a %s",
			name, describeKind(f.kind, f.volatile), describeKind(kind, volatile)))
	}
	return f
}

func describeKind(kind metricKind, volatile bool) string {
	name := [...]string{kindCounter: "counter", kindGauge: "gauge", kindSketch: "sketch"}[kind]
	if volatile {
		return "volatile " + name
	}
	return name
}

// instance returns the metric name{labels}, creating it and its family on
// first use; nil on a nil registry. labels alternate key, value. It stays
// a plain method rather than a generic function: the accessors below
// inline into their callers, and a generic callee's escape facts do not
// reach them, which moves every call site's variadic label slice to the
// heap, telemetry on or off.
func (r *Registry) instance(name string, kind metricKind, volatile bool, labels []string) any {
	if r == nil {
		return nil
	}
	f := r.lookup(name, kind, volatile)
	ls := labelString(labels)
	f.mu.Lock()
	defer f.mu.Unlock()
	m, ok := f.insts[ls]
	if !ok {
		switch kind {
		case kindCounter:
			m = new(Counter)
		case kindGauge:
			m = new(Gauge)
		case kindSketch:
			m = new(Sketch)
		}
		f.insts[ls] = m
	}
	return m
}

// labelString renders "k1=v1,k2=v2" from alternating key/value pairs.
// Instrumentation sites pass labels in a fixed order, so no sorting is
// needed for identity; snapshots sort families and instances anyway.
//
// Values are escaped (`\` `,` `=` and newline) so the rendered string
// parses back unambiguously; keys must not contain structural characters
// at all — checkLabelKey rejects them at registration.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		checkLabelKey(labels[i])
		b.WriteString(labels[i])
		b.WriteByte('=')
		escapeLabelValue(&b, labels[i+1])
	}
	return b.String()
}

// checkLabelKey panics on label keys containing structural characters.
// Keys are string literals at instrumentation sites, so a bad key is a
// programming error, caught at first registration.
func checkLabelKey(k string) {
	if strings.ContainsAny(k, ",=\"\\\n") {
		panic("obs: label key " + strconv.Quote(k) + ` must not contain ',' '=' '"' '\' or newline`)
	}
}

func escapeLabelValue(b *strings.Builder, v string) {
	for i := 0; i < len(v); i++ {
		switch c := v[i]; c {
		case '\\', ',', '=':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
}

// parseLabelString inverts labelString: it splits on unescaped separators
// and unescapes values, returning alternating key/value pairs.
func parseLabelString(ls string) []string {
	if ls == "" {
		return nil
	}
	var out []string
	var cur strings.Builder
	inValue, escaped := false, false
	flush := func() { out = append(out, cur.String()); cur.Reset() }
	for i := 0; i < len(ls); i++ {
		c := ls[i]
		switch {
		case escaped:
			if c == 'n' {
				cur.WriteByte('\n')
			} else {
				cur.WriteByte(c)
			}
			escaped = false
		case c == '\\':
			escaped = true
		case c == '=' && !inValue:
			flush()
			inValue = true
		case c == ',' && inValue:
			flush()
			inValue = false
		default:
			cur.WriteByte(c)
		}
	}
	flush()
	return out
}

// Counter is a monotonically increasing int64.
type Counter struct{ v atomic.Int64 }

// Add increments the counter; nil-safe.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Value returns the current count (0 on nil).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a settable int64 with a Max helper for high-water marks.
type Gauge struct{ v atomic.Int64 }

// Set stores n; nil-safe.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (may be negative); nil-safe.
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Max raises the gauge to n if n is greater; nil-safe.
func (g *Gauge) Max(n int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if n <= cur || g.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Value returns the current value (0 on nil).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// ── registry accessors ────────────────────────────────────────────────────

// Counter returns the deterministic counter name{labels}, creating it on
// first use. labels alternate key, value.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	c, _ := r.instance(name, kindCounter, false, labels).(*Counter)
	return c
}

// VolatileCounter is Counter for schedule-dependent values (per-worker
// shares); excluded from deterministic snapshots.
func (r *Registry) VolatileCounter(name string, labels ...string) *Counter {
	c, _ := r.instance(name, kindCounter, true, labels).(*Counter)
	return c
}

// VolatileGauge returns the gauge name{labels}, creating it on first use.
// Every gauge is volatile: gauges hold schedule-dependent values (queue
// depth high-water marks, worker counts, memory samples).
func (r *Registry) VolatileGauge(name string, labels ...string) *Gauge {
	g, _ := r.instance(name, kindGauge, true, labels).(*Gauge)
	return g
}

// ── snapshots ─────────────────────────────────────────────────────────────

// Snapshot renders a deterministic text snapshot: families sorted by name,
// instances by label string. With includeVolatile false (the report
// section and golden tests) only schedule-independent metrics appear.
func (r *Registry) Snapshot(includeVolatile bool) string {
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
		if f.volatile && !includeVolatile {
			continue
		}
		f.mu.Lock()
		keys := make([]string, 0, len(f.insts))
		for k := range f.insts {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			label := ""
			if k != "" {
				label = "{" + k + "}"
			}
			switch m := f.insts[k].(type) {
			case *Counter:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, label, m.Value())
			case *Gauge:
				fmt.Fprintf(&b, "%s%s %d\n", f.name, label, m.Value())
			case *Sketch:
				fmt.Fprintf(&b, "%s%s count=%d sum_us=%d p50=%s p90=%s p99=%s\n",
					f.name, label, m.Count(), m.SumUS(),
					fmtQuantile(m, 0.50), fmtQuantile(m, 0.90), fmtQuantile(m, 0.99))
			}
		}
		f.mu.Unlock()
	}
	return b.String()
}

// fmtQuantile renders a quantile with fixed microsecond precision so the
// snapshot never depends on float formatting of derived values.
func fmtQuantile(m *Sketch, q float64) string {
	return fmt.Sprintf("%dus", int64(m.Quantile(q)/time.Microsecond))
}
