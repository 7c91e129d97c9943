package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

// ── Sketch ────────────────────────────────────────────────────────────────

func TestSketchBoundsAreLogSpacedAndDeterministic(t *testing.T) {
	e := sketchBounds
	if len(e) != 41 {
		t.Fatalf("%d edges, want 41 (100µs to 10s at 8 per decade)", len(e))
	}
	if e[0] != 100*time.Microsecond || e[len(e)-1] != 10*time.Second {
		t.Errorf("edges span %v..%v, want 100µs..10s", e[0], e[len(e)-1])
	}
	for i := 1; i < len(e); i++ {
		if e[i] <= e[i-1] {
			t.Fatalf("edges not strictly increasing at %d: %v then %v", i, e[i-1], e[i])
		}
	}
	// Eight buckets per decade: every 8th edge is an exact power of ten.
	for i, want := range map[int]time.Duration{
		8: time.Millisecond, 16: 10 * time.Millisecond, 24: 100 * time.Millisecond, 32: time.Second,
	} {
		if e[i] != want {
			t.Errorf("edge %d = %v, want %v", i, e[i], want)
		}
	}
}

func TestSketchQuantilesHandComputed(t *testing.T) {
	// Edges around the observations: e[7] = 750µs, e[8] = 1ms,
	// e[15] = 7499µs, e[16] = 10ms.
	if sketchBounds[7] != 750*time.Microsecond || sketchBounds[15] != 7499*time.Microsecond {
		t.Fatalf("edges 7 and 15 = %v, %v; want 750µs, 7.499ms", sketchBounds[7], sketchBounds[15])
	}
	var sk Sketch
	// 8 obs in (750µs, 1ms], 2 in (7.499ms, 10ms].
	for i := 0; i < 8; i++ {
		sk.Observe(time.Millisecond)
	}
	sk.Observe(10 * time.Millisecond)
	sk.Observe(10 * time.Millisecond)
	if sk.Count() != 10 || sk.SumUS() != 28000 {
		t.Fatalf("count=%d sum=%d, want 10/28000", sk.Count(), sk.SumUS())
	}
	for _, c := range []struct {
		q    float64
		want time.Duration
		why  string
	}{
		// Rank 5 of 8 in bucket 8: 750µs + 5/8 × 250µs.
		{0.50, 906250 * time.Nanosecond, "5/8 into the 1ms bucket"},
		// Rank 8 is bucket 8's whole cumulative count: its upper edge.
		{0.80, time.Millisecond, "the exact 1ms edge"},
		// Rank 9 skips the empty buckets 9..15 and lands half-way into
		// bucket 16: 7499µs + (9-8)/2 × 2501µs.
		{0.90, 8749500 * time.Nanosecond, "half-way into the 10ms bucket"},
		{1.00, 10 * time.Millisecond, "the exact 10ms edge"},
	} {
		if got := sk.Quantile(c.q); got != c.want {
			t.Errorf("p%v = %v, want %v (%s)", c.q*100, got, c.want, c.why)
		}
	}
	// Overflow clamps to the top edge.
	sk.Observe(30 * time.Second)
	if got := sk.Quantile(1.0); got != 10*time.Second {
		t.Errorf("p100 with overflow = %v, want top edge 10s", got)
	}
}

func TestSketchQuantileEdges(t *testing.T) {
	var nilSketch *Sketch
	if got := nilSketch.Quantile(0.5); got != 0 {
		t.Errorf("nil sketch quantile = %v, want 0", got)
	}
	var empty Sketch
	for _, q := range []float64{-1, 0, 0.5, 1, 2} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty sketch Quantile(%v) = %v, want 0", q, got)
		}
	}
	var sk Sketch
	sk.Observe(500 * time.Microsecond)
	// Out-of-range q clamps instead of extrapolating.
	if got, want := sk.Quantile(-3), sk.Quantile(0); got != want {
		t.Errorf("Quantile(-3) = %v, Quantile(0) = %v; want equal", got, want)
	}
	if got, want := sk.Quantile(7), sk.Quantile(1); got != want {
		t.Errorf("Quantile(7) = %v, Quantile(1) = %v; want equal", got, want)
	}
}

// TestHistogramQuantileEdges pins the edge cases of a registry latency
// family — a Sketch, exposed to Prometheus as type histogram.
func TestHistogramQuantileEdges(t *testing.T) {
	var nilReg *Registry
	if got := nilReg.Sketch("lat").Quantile(0.5); got != 0 {
		t.Errorf("nil registry family quantile = %v, want 0", got)
	}
	reg := NewRegistry()
	empty := reg.Sketch("lat")
	for _, q := range []float64{-0.5, 0, 0.5, 1, 1.5} {
		if got := empty.Quantile(q); got != 0 {
			t.Errorf("empty family Quantile(%v) = %v, want 0", q, got)
		}
	}
	h := reg.Sketch("lat2")
	h.Observe(5 * time.Millisecond)
	h.Observe(15 * time.Millisecond)
	if got, want := h.Quantile(-1), h.Quantile(0); got != want {
		t.Errorf("Quantile(-1) = %v, Quantile(0) = %v; want equal (clamped)", got, want)
	}
	if got, want := h.Quantile(99), h.Quantile(1); got != want {
		t.Errorf("Quantile(99) = %v, Quantile(1) = %v; want equal (clamped)", got, want)
	}
	// Interpolation resolves to the upper edge of the bucket holding the
	// max observation, not the observation itself: 15ms lies in
	// (13.335ms, 17.783ms].
	if got := h.Quantile(1); got != 17783*time.Microsecond {
		t.Errorf("Quantile(1) = %v, want the 17.783ms edge", got)
	}
	// Every observation above the top edge clamps to it.
	over := reg.Sketch("lat3")
	over.Observe(time.Minute)
	over.Observe(time.Hour)
	if got := over.Quantile(0.5); got != 10*time.Second {
		t.Errorf("overflow-only p50 = %v, want the 10s top edge", got)
	}
	if over.Count() != 2 {
		t.Errorf("overflow observations not counted: %d", over.Count())
	}
}

func TestSketchMergeMismatchAndNil(t *testing.T) {
	var a, b Sketch
	a.Observe(500 * time.Microsecond)
	b.Observe(700 * time.Microsecond)
	b.Observe(time.Minute)
	a.Merge(&b)
	if a.Count() != 3 || a.SumUS() != 60_001_200 {
		t.Errorf("after merge count=%d sum=%d, want 3/60001200", a.Count(), a.SumUS())
	}
	if _, overflow := a.bucketCounts(); overflow != 1 {
		t.Errorf("overflow after merge = %d, want 1", overflow)
	}
	a.Merge(nil)
	var nilSketch *Sketch
	nilSketch.Merge(&a)
	nilSketch.Observe(time.Millisecond) // no-op, must not panic
	if a.Count() != 3 {
		t.Errorf("nil merges changed the sketch: count %d", a.Count())
	}
}

// ── one registry, many recorders ──────────────────────────────────────────

// recordShare is one recorder goroutine's share of the concurrent
// recording test: n tasks into shared counter, sketch and volatile-gauge
// families, plus a per-recorder volatile counter.
func recordShare(reg *Registry, g, n int) {
	for i := 0; i < n; i++ {
		reg.Counter("tasks_total", "pool", "campaign").Add(1)
		reg.Counter("outcomes_total", "outcome", fmt.Sprint(i%3)).Add(1)
		reg.Sketch("lat", "proto", "doh").Observe(time.Duration(1+i%50) * time.Millisecond)
		reg.VolatileGauge("inflight_max", "pool", "campaign").Max(int64(g*n + i))
		reg.VolatileCounter("worker_tasks", "worker", fmt.Sprint(g)).Add(1)
	}
}

// TestConcurrentRecordingIntoOneRegistry is the -race test for the one
// registry every runner worker records into: eight goroutines record into
// the same counter, sketch and volatile-gauge families while another
// renders snapshots and the Prometheus exposition, and the final values
// are exact — the same as one goroutine recording everything in turn.
func TestConcurrentRecordingIntoOneRegistry(t *testing.T) {
	const recorders, perRecorder = 8, 2000
	reg := NewRegistry()
	stop := make(chan struct{})
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = reg.Snapshot(true)
			_ = reg.PrometheusText()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < recorders; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			recordShare(reg, g, perRecorder)
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	if got := reg.Counter("tasks_total", "pool", "campaign").Value(); got != recorders*perRecorder {
		t.Errorf("tasks_total = %d, want %d", got, recorders*perRecorder)
	}
	// i%3 over 0..1999 hits 0 and 1 667 times each and 2 666 times.
	for outcome, want := range map[string]int64{"0": 667 * recorders, "1": 667 * recorders, "2": 666 * recorders} {
		if got := reg.Counter("outcomes_total", "outcome", outcome).Value(); got != want {
			t.Errorf("outcomes_total{outcome=%s} = %d, want %d", outcome, got, want)
		}
	}
	// Each recorder observes 1..50ms forty times: 40 × 1275ms.
	lat := reg.Sketch("lat", "proto", "doh")
	if lat.Count() != recorders*perRecorder || lat.SumUS() != recorders*40*1275_000 {
		t.Errorf("sketch count=%d sum=%dµs, want %d / %d", lat.Count(), lat.SumUS(), recorders*perRecorder, recorders*40*1275_000)
	}
	if got := reg.VolatileGauge("inflight_max", "pool", "campaign").Value(); got != recorders*perRecorder-1 {
		t.Errorf("inflight_max = %d, want %d", got, recorders*perRecorder-1)
	}

	serial := NewRegistry()
	for g := 0; g < recorders; g++ {
		recordShare(serial, g, perRecorder)
	}
	if got, want := reg.Snapshot(true), serial.Snapshot(true); got != want {
		t.Errorf("concurrent snapshot differs from serial recording\ngot:\n%s\nwant:\n%s", got, want)
	}
	if got, want := reg.PrometheusText(), serial.PrometheusText(); got != want {
		t.Error("concurrent Prometheus exposition differs from serial recording")
	}
}

// TestRegistrationMismatchPanics pins that a metric name keeps the kind and
// volatility it was first registered with. Before the check, lookup
// returned the first family whatever a later call asked for: a
// deterministic Counter on a volatile name never reached the report's
// snapshot, and a Sketch on a counter name rendered histogram buckets
// under a counter TYPE line.
func TestRegistrationMismatchPanics(t *testing.T) {
	for _, c := range []struct {
		name        string
		first, then func(*Registry)
	}{
		{"volatile counter, then counter", func(r *Registry) { r.VolatileCounter("x") }, func(r *Registry) { r.Counter("x").Add(5) }},
		{"counter, then volatile counter", func(r *Registry) { r.Counter("x") }, func(r *Registry) { r.VolatileCounter("x") }},
		{"counter, then sketch", func(r *Registry) { r.Counter("y") }, func(r *Registry) { r.Sketch("y") }},
		{"sketch, then counter", func(r *Registry) { r.Sketch("y") }, func(r *Registry) { r.Counter("y") }},
		{"volatile gauge, then volatile counter", func(r *Registry) { r.VolatileGauge("z") }, func(r *Registry) { r.VolatileCounter("z") }},
		{"sketch, then volatile gauge", func(r *Registry) { r.Sketch("z", "proto", "dot") }, func(r *Registry) { r.VolatileGauge("z", "proto", "doh") }},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := NewRegistry()
			c.first(r)
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "is registered as a") {
					t.Errorf("second registration did not panic with the kind mismatch (recovered %q)\nsnapshot:\n%s", msg, r.Snapshot(true))
				}
			}()
			c.then(r)
		})
	}
	// The same kind and volatility under new labels is an ordinary lookup.
	r := NewRegistry()
	r.VolatileCounter("x", "worker", "0").Add(1)
	r.VolatileCounter("x", "worker", "1").Add(2)
	if got := r.Snapshot(true); got != "x{worker=0} 1\nx{worker=1} 2\n" {
		t.Errorf("snapshot = %q", got)
	}
}

// ── label escaping ────────────────────────────────────────────────────────

func TestLabelValueEscapingRoundTrips(t *testing.T) {
	hostile := `cn=EvilCA, O="quo\te",eq==` + "\nnext"
	reg := NewRegistry()
	reg.Counter("certs_total", "subject", hostile, "plain", "ok").Add(1)

	kv := parseLabelString(labelString([]string{"subject", hostile, "plain", "ok"}))
	if len(kv) != 4 || kv[0] != "subject" || kv[1] != hostile || kv[2] != "plain" || kv[3] != "ok" {
		t.Fatalf("label round trip lost data: %q", kv)
	}

	text := reg.PrometheusText()
	want := `doe_certs_total{subject="cn=EvilCA, O=\"quo\\te\",eq==\nnext",plain="ok"} 1`
	if !strings.Contains(text, want) {
		t.Errorf("exposition line corrupt:\ngot:  %s\nwant: %s", text, want)
	}
	// Exactly one value line for the family (no spurious splits on the
	// embedded comma).
	if got := strings.Count(text, "doe_certs_total{"); got != 1 {
		t.Errorf("%d exposition lines for one instance", got)
	}
}

func TestLabelKeyRejectedAtRegistration(t *testing.T) {
	for _, key := range []string{"bad,key", "bad=key", `bad\key`, `bad"key`, "bad\nkey"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("label key %q accepted, want panic", key)
				}
			}()
			NewRegistry().Counter("m", key, "v")
		}()
	}
}

// ── progress + endpoints ──────────────────────────────────────────────────

func TestPhaseProgressAndNilSafety(t *testing.T) {
	var nilRec *Recorder
	nilRec.Phase("x").AddTotal(5)
	nilRec.Phase("x").Done(1)
	if got := nilRec.Progress(); got != nil {
		t.Errorf("nil recorder progress = %v, want nil", got)
	}

	rec := NewRecorder("study")
	rec.Phase("experiments").AddTotal(12)
	rec.Phase("campaign").AddTotal(80)
	rec.Phase("campaign").Done(25)
	rec.Phase("experiments").Done(3)
	got := rec.Progress()
	want := []PhaseStatus{{Name: "experiments", Done: 3, Total: 12}, {Name: "campaign", Done: 25, Total: 80}}
	if len(got) != len(want) {
		t.Fatalf("progress = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("phase %d = %+v, want %+v (registration order must hold)", i, got[i], want[i])
		}
	}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	rec := NewRecorder("study")
	rec.Metrics().Counter("alpha_total").Add(2)
	rec.Phase("experiments").AddTotal(12)
	rec.Phase("experiments").Done(4)
	sampled := 0
	srv := httptest.NewServer(DebugHandler(rec, func(reg *Registry) {
		sampled++
		SampleMemStats(reg)
	}))
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading %s: %v", path, err)
		}
		return resp.StatusCode, string(body)
	}

	code, body := get("/healthz")
	if code != http.StatusOK || strings.TrimSpace(body) != `{"status":"ok"}` {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, body = get("/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status = %d", code)
	}
	var prog struct {
		Phases []PhaseStatus `json:"phases"`
	}
	if err := json.Unmarshal([]byte(body), &prog); err != nil {
		t.Fatalf("/progress is not JSON: %v\n%s", err, body)
	}
	if len(prog.Phases) != 1 || prog.Phases[0] != (PhaseStatus{Name: "experiments", Done: 4, Total: 12}) {
		t.Errorf("/progress = %+v", prog.Phases)
	}

	code, body = get("/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status = %d", code)
	}
	if sampled != 1 {
		t.Errorf("sampler ran %d times for one scrape", sampled)
	}
	for _, want := range []string{"doe_alpha_total 2", "doe_mem_heap_alloc_bytes", "doe_mem_high_water_bytes"} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
