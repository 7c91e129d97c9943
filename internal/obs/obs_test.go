package obs

import (
	"bytes"
	"context"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"
)

func traceBytes(t *testing.T, r *Recorder) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	return buf.Bytes()
}

// TestKeyedSiblingsOrderIsScheduleIndependent builds the same keyed
// fan-out twice — once in index order, once in reverse from separate
// goroutines — and demands byte-identical JSONL.
func TestKeyedSiblingsOrderIsScheduleIndependent(t *testing.T) {
	build := func(order []int) *Recorder {
		r := NewRecorder("study")
		parent := r.Root().Start("campaign:global")
		var wg sync.WaitGroup
		gate := make(chan struct{})
		for _, i := range order {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				<-gate
				sp := parent.Start("node", Key(i))
				sp.SetInt("idx", int64(i))
				sp.Charge(time.Duration(i+1) * time.Millisecond)
			}(i)
		}
		close(gate)
		wg.Wait()
		return r
	}
	fwd := make([]int, 16)
	rev := make([]int, 16)
	for i := range fwd {
		fwd[i] = i
		rev[i] = len(rev) - 1 - i
	}
	a := traceBytes(t, build(fwd))
	b := traceBytes(t, build(rev))
	if !bytes.Equal(a, b) {
		t.Fatalf("keyed sibling order depends on schedule:\n%s\nvs\n%s", a, b)
	}
	recs, err := ReadTrace(bytes.NewReader(a))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	// 1 root + 1 campaign + 16 nodes, and node#k paths appear in key order.
	if len(recs) != 18 {
		t.Fatalf("got %d records, want 18", len(recs))
	}
	if recs[2].Path != "study/campaign:global/node" || recs[3].Path != "study/campaign:global/node#2" {
		t.Fatalf("unexpected sibling paths: %q, %q", recs[2].Path, recs[3].Path)
	}
	if recs[2].Attrs["idx"] != "0" || recs[17].Attrs["idx"] != "15" {
		t.Fatalf("keyed order broken: first idx=%s last idx=%s", recs[2].Attrs["idx"], recs[17].Attrs["idx"])
	}
}

func TestSerialSiblingsKeepCreationOrder(t *testing.T) {
	r := NewRecorder("root")
	p := r.Root()
	p.Start("b")
	p.Start("a")
	recs := r.Records()
	if recs[1].Path != "root/b" || recs[2].Path != "root/a" {
		t.Fatalf("serial order not creation order: %q, %q", recs[1].Path, recs[2].Path)
	}
}

func TestNilEverythingIsSafe(t *testing.T) {
	var r *Recorder
	var sp *Span
	var reg *Registry
	r.FlowEvent(netip.Addr{}, netip.Addr{}, "x")
	r.WatchFlow(netip.Addr{}, netip.Addr{}, nil)()
	if r.Root() != nil || r.Metrics() != nil || r.SpanCount() != 0 {
		t.Fatal("nil recorder leaked state")
	}
	sp.SetAttr("k", "v")
	sp.SetInt("k", 1)
	sp.Event("e")
	sp.Charge(time.Second)
	sp.Fail(nil)
	if sp.Start("child") != nil || sp.Virtual() != 0 || sp.Name() != "" {
		t.Fatal("nil span leaked state")
	}
	reg.Counter("c").Add(1)
	reg.VolatileCounter("vc").Add(1)
	reg.VolatileGauge("vg").Max(1)
	reg.Sketch("h").Observe(time.Second)
	if reg.Snapshot(true) != "" || reg.PrometheusText() != "" {
		t.Fatal("nil registry rendered output")
	}
	ctx := context.Background()
	ctx2, span := Start(ctx, "noop")
	if span != nil {
		t.Fatal("Start without recorder returned a span")
	}
	Charge(ctx2, time.Second)
	if FromContext(ctx2) != nil || Metrics(ctx2) != nil || CurrentSpan(ctx2) != nil {
		t.Fatal("context plumbing fabricated a recorder")
	}
}

func TestContextPlumbingAndWorkerSink(t *testing.T) {
	r := NewRecorder("study")
	reg := r.Metrics()
	total := reg.Counter("runner_virtual_busy_us_total", "pool", "p")
	worker := reg.VolatileCounter("runner_worker_virtual_busy_us", "pool", "p", "worker", "0")
	ctx := WithRecorder(context.Background(), r)
	ctx = WithWorkerSink(ctx, total, worker)
	ctx, sp := Start(ctx, "task")
	Charge(ctx, 3*time.Millisecond)
	if sp.Virtual() != 3*time.Millisecond {
		t.Fatalf("span virtual = %v", sp.Virtual())
	}
	if total.Value() != 3000 || worker.Value() != 3000 {
		t.Fatalf("sink totals = %d/%d, want 3000/3000", total.Value(), worker.Value())
	}
	if FromContext(ctx) != r || CurrentSpan(ctx) != sp {
		t.Fatal("context lookups broken")
	}
	if PoolName(ctx, "fb") != "fb" || PoolName(WithPool(ctx, "scan"), "fb") != "scan" {
		t.Fatal("pool name plumbing broken")
	}
}

func TestFlowEventsAnnotateWatchedSpan(t *testing.T) {
	r := NewRecorder("study")
	sp := r.Root().Start("lookup")
	from := netip.MustParseAddr("10.0.0.1")
	to := netip.MustParseAddr("1.1.1.1")
	release := r.WatchFlow(from, to, sp)
	r.FlowEvent(from, to, "fault:syn-drop")
	release()
	r.FlowEvent(from, to, "fault:reset") // after release: dropped
	recs := r.Records()
	if len(recs[1].Events) != 1 || recs[1].Events[0] != "fault:syn-drop" {
		t.Fatalf("events = %v", recs[1].Events)
	}
}

func TestSpanNameSanitization(t *testing.T) {
	r := NewRecorder("a/b")
	r.Root().Start("x/y\nz")
	recs := r.Records()
	if recs[0].Path != "a_b" || recs[1].Path != "a_b/x_y_z" {
		t.Fatalf("sanitization broken: %q, %q", recs[0].Path, recs[1].Path)
	}
}

func TestValidateRejectsMalformedTraces(t *testing.T) {
	cases := map[string]string{
		"unknown field": `{"path":"r","virt_us":0,"bogus":1}`,
		"empty":         ``,
		"orphan parent": "{\"path\":\"r\",\"virt_us\":0}\n{\"path\":\"r/a/b\",\"virt_us\":0}",
		"second root":   "{\"path\":\"r\",\"virt_us\":0}\n{\"path\":\"q\",\"virt_us\":0}",
		"negative virt": `{"path":"r","virt_us":-1}`,
		"dup path":      "{\"path\":\"r\",\"virt_us\":0}\n{\"path\":\"r/a\",\"virt_us\":0}\n{\"path\":\"r/a\",\"virt_us\":0}",
		"child first":   `{"path":"r/a","virt_us":0}`,
	}
	for name, in := range cases {
		if _, err := ReadTrace(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadTrace accepted malformed trace", name)
		}
	}
}

func TestTraceRoundTrip(t *testing.T) {
	r := NewRecorder("study")
	sp := r.Root().Start("exp:table4")
	sp.SetAttr("title", "reachability")
	sp.Charge(1500 * time.Microsecond)
	sp.Event("note")
	child := sp.Start("lookup")
	child.Fail(context.DeadlineExceeded)
	raw := traceBytes(t, r)
	recs, err := ReadTrace(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("ReadTrace: %v", err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records", len(recs))
	}
	if recs[1].VirtUS != 1500 || recs[1].Attrs["title"] != "reachability" {
		t.Fatalf("record mismatch: %+v", recs[1])
	}
	if recs[2].Err == "" {
		t.Fatal("error not exported")
	}
	if r.SpanCount() != 2 {
		t.Fatalf("SpanCount = %d, want 2", r.SpanCount())
	}
}

// TestHistogramQuantilesHandComputed pins a registry latency family's
// interpolation against by-hand arithmetic on the sketch layout:
// observations 5, 15, 15, 40, 100 ms land in the buckets ending at
// 5623µs, 17783µs (×2), 42170µs and exactly 100ms (edge 24).
func TestHistogramQuantilesHandComputed(t *testing.T) {
	reg := NewRegistry()
	h := reg.Sketch("lat")
	for _, d := range []time.Duration{
		5 * time.Millisecond, 15 * time.Millisecond, 15 * time.Millisecond,
		40 * time.Millisecond, 100 * time.Millisecond,
	} {
		h.Observe(d)
	}
	if h.Count() != 5 || h.SumUS() != 175000 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.SumUS())
	}
	// p20: rank 1.0 lands exactly on bucket 14's cumulative count → its
	// upper edge: 4217 + (1-0)/1 × (5623-4217) = 5623µs.
	if got := h.Quantile(0.20); got != 5623*time.Microsecond {
		t.Errorf("p20 = %v, want 5.623ms", got)
	}
	// p50: rank 2.5; bucket 18 spans cumulative (1,3]:
	// 13335 + (2.5-1)/2 × (17783-13335) = 16671µs.
	if got := h.Quantile(0.50); got != 16671*time.Microsecond {
		t.Errorf("p50 = %v, want 16.671ms", got)
	}
	// p70: rank 3.5; bucket 21 spans (3,4]:
	// 31623 + (3.5-3)/1 × (42170-31623) = 36896.5µs.
	if got := h.Quantile(0.70); got != 36896500*time.Nanosecond {
		t.Errorf("p70 = %v, want 36.8965ms", got)
	}
	// p100: rank 5 is bucket 24's whole cumulative count → the exact
	// 100ms edge, not an interpolated point inside it.
	if got := h.Quantile(1); got != 100*time.Millisecond {
		t.Errorf("p100 = %v, want 100ms", got)
	}
	var empty *Sketch
	if empty.Quantile(0.5) != 0 || NewRegistry().Sketch("e").Quantile(0.5) != 0 {
		t.Error("empty family quantile not 0")
	}
}

func TestSnapshotFiltersVolatileAndSortsDeterministically(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("zeta_total", "proto", "dot").Add(2)
	reg.Counter("alpha_total").Add(1)
	reg.VolatileGauge("runner_workers", "pool", "scan").Set(8)
	reg.Sketch("lat", "proto", "doh").Observe(4 * time.Millisecond)

	det := reg.Snapshot(false)
	if strings.Contains(det, "runner_workers") {
		t.Fatalf("volatile metric leaked into deterministic snapshot:\n%s", det)
	}
	// 4ms lies in the sketch bucket (3162µs, 4217µs]; the quantiles
	// interpolate across it.
	want := "alpha_total 1\nlat{proto=doh} count=1 sum_us=4000 p50=3689us p90=4111us p99=4206us\nzeta_total{proto=dot} 2\n"
	if det != want {
		t.Fatalf("deterministic snapshot:\n%q\nwant:\n%q", det, want)
	}
	full := reg.Snapshot(true)
	if !strings.Contains(full, "runner_workers{pool=scan} 8") {
		t.Fatalf("full snapshot missing volatile metric:\n%s", full)
	}
}

func TestPrometheusText(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("queries_total", "proto", "dot", "outcome", "ok").Add(7)
	lat := reg.Sketch("lat", "proto", "dot")
	lat.Observe(time.Millisecond)
	lat.Observe(30 * time.Second)
	out := reg.PrometheusText()
	for _, want := range []string{
		"# TYPE doe_queries_total counter",
		`doe_queries_total{proto="dot",outcome="ok"} 7`,
		"# TYPE doe_lat histogram",
		`doe_lat_bucket{proto="dot",le="0.0001"} 0`,
		`doe_lat_bucket{proto="dot",le="0.00075"} 0`,
		`doe_lat_bucket{proto="dot",le="0.001"} 1`,
		`doe_lat_bucket{proto="dot",le="10"} 1`,
		`doe_lat_bucket{proto="dot",le="+Inf"} 2`,
		`doe_lat_sum{proto="dot"} 30.001`,
		`doe_lat_count{proto="dot"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
	// One cumulative bucket per sketch edge, plus +Inf.
	if got := strings.Count(out, "doe_lat_bucket{"); got != 42 {
		t.Errorf("%d bucket lines, want 42", got)
	}
}

func TestRenderTree(t *testing.T) {
	r := NewRecorder("study")
	sp := r.Root().Start("exp:table4")
	sp.Charge(2 * time.Millisecond)
	look := sp.Start("lookup")
	look.SetAttr("outcome", "correct")
	look.Event("fault:stall")
	recs := r.Records()
	out := RenderTree(recs)
	want := "study\n  exp:table4 [2.000ms]\n    lookup {outcome=correct}\n      * fault:stall\n"
	if out != want {
		t.Fatalf("RenderTree:\n%q\nwant:\n%q", out, want)
	}
}

func TestGaugeMaxAndRegistryReuse(t *testing.T) {
	reg := NewRegistry()
	g := reg.VolatileGauge("depth")
	g.Max(3)
	g.Max(1)
	if g.Value() != 3 {
		t.Fatalf("Max = %d", g.Value())
	}
	if reg.Counter("c", "a", "1") != reg.Counter("c", "a", "1") {
		t.Fatal("counter instances not reused")
	}
	if reg.Counter("c", "a", "1") == reg.Counter("c", "a", "2") {
		t.Fatal("distinct labels shared an instance")
	}
}
