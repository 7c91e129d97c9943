package core

import (
	"fmt"
	"os"
	"path"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/vantage"
)

// sharedStudy is built once: constructing the world (certificates, servers)
// dominates test time and the pipeline stages cache their results.
var sharedStudy *Study

func study(t *testing.T) *Study {
	t.Helper()
	if sharedStudy == nil {
		s, err := NewStudy(TestConfig())
		if err != nil {
			t.Fatalf("NewStudy: %v", err)
		}
		sharedStudy = s
	}
	return sharedStudy
}

func TestTable1Static(t *testing.T) {
	out := Table1().Render()
	for _, want := range []string{"DNS-over", "Standardized by IETF", "●", "○"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 1 missing %q", want)
		}
	}
	if len(ComparisonMatrix) != 10 {
		t.Errorf("criteria = %d, want 10", len(ComparisonMatrix))
	}
	for _, c := range ComparisonMatrix {
		if len(c.Grades) != 5 {
			t.Errorf("criterion %q has %d grades", c.Name, len(c.Grades))
		}
	}
}

func TestTable8AndStats(t *testing.T) {
	out := Table8().Render()
	for _, want := range []string{"Cloudflare", "Stubby", "Firefox", "Android 9"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 8 missing %q", want)
		}
	}
	// How many surveyed implementations support each technology, the way
	// Appendix A's discussion summarizes the table.
	stats := map[string]int{}
	for _, impl := range Implementations {
		for tech, on := range map[string]bool{"DoT": impl.DoT, "DoH": impl.DoH, "DNSSEC": impl.DNSSEC} {
			if on {
				stats[tech]++
			}
		}
	}
	// DoT and DoH gained support quickly; DNSSEC remains the most
	// widespread (it is a decade older).
	if stats["DoT"] < 10 || stats["DoH"] < 10 {
		t.Errorf("DoT/DoH support = %d/%d", stats["DoT"], stats["DoH"])
	}
	if stats["DNSSEC"] <= stats["DoH"] {
		t.Errorf("DNSSEC (%d) should exceed DoH (%d) in the survey", stats["DNSSEC"], stats["DoH"])
	}
}

func TestScansDiscoverPopulation(t *testing.T) {
	s := study(t)
	scans, err := s.ScanResults()
	if err != nil {
		t.Fatal(err)
	}
	if len(scans) != s.ScanRounds {
		t.Fatalf("scan rounds = %d", len(scans))
	}
	first, last := scans[0], scans[len(scans)-1]

	// Ground truth: every active resolver must be found.
	if want := s.ActiveResolverCount(0); len(first.Resolvers) < want {
		t.Errorf("first scan found %d resolvers, ground truth %d", len(first.Resolvers), want)
	}
	// Port-open population is far larger than the DoT population.
	if first.PortOpen <= len(first.Resolvers) {
		t.Errorf("port-open %d not above resolvers %d", first.PortOpen, len(first.Resolvers))
	}

	// Churn shapes (Table 2): IE grows ≈2x, US grows ≈5x, CN collapses.
	fc, lc := first.CountryCounts(), last.CountryCounts()
	if lc["IE"] <= fc["IE"] {
		t.Errorf("IE: %d -> %d, want growth", fc["IE"], lc["IE"])
	}
	if lc["US"] <= 3*fc["US"] {
		t.Errorf("US: %d -> %d, want ≈5x growth", fc["US"], lc["US"])
	}
	if lc["CN"] >= fc["CN"]/2 {
		t.Errorf("CN: %d -> %d, want collapse", fc["CN"], lc["CN"])
	}

	// Finding 1.2 shapes on the last scan.
	counts := last.ProviderCounts()
	invalid := last.InvalidCertProviders()
	frac := float64(len(invalid)) / float64(len(counts))
	if frac < 0.10 || frac > 0.45 {
		t.Errorf("invalid-cert provider fraction = %.2f (want ≈0.25)", frac)
	}
	single := 0
	for _, n := range counts {
		if n == 1 {
			single++
		}
	}
	if sf := float64(single) / float64(len(counts)); sf < 0.5 {
		t.Errorf("single-address provider fraction = %.2f (want ≈0.7)", sf)
	}
	// Large providers own most addresses.
	top := 0
	for _, kv := range topProviders(counts, 7) {
		top += kv
	}
	if share := float64(top) / float64(len(last.Resolvers)); share < 0.6 {
		t.Errorf("top-7 provider address share = %.2f (want > 0.6)", share)
	}
}

func topProviders(counts map[string]int, n int) []int {
	var sizes []int
	for _, v := range counts {
		sizes = append(sizes, v)
	}
	for i := 1; i < len(sizes); i++ {
		for j := i; j > 0 && sizes[j] > sizes[j-1]; j-- {
			sizes[j], sizes[j-1] = sizes[j-1], sizes[j]
		}
	}
	if n > len(sizes) {
		n = len(sizes)
	}
	return sizes[:n]
}

func TestDoHDiscovery(t *testing.T) {
	s := study(t)
	found := s.DoHDiscovery()
	if len(found) != 17 {
		t.Fatalf("DoH resolvers = %d, want 17", len(found))
	}
	beyond := 0
	for _, r := range found {
		if !r.InKnownList {
			beyond++
		}
	}
	if beyond != 2 {
		t.Errorf("beyond-list discoveries = %d, want 2", beyond)
	}
}

func TestReachabilityShapes(t *testing.T) {
	s := study(t)
	data := s.Reachability()
	global := data.Global.ByResolverProto()
	censored := data.Censored.ByResolverProto()

	rate := func(tallies map[string]map[resolver.Proto]vantage.Tally, name string, proto resolver.Proto) (c, i, f float64) {
		return tallies[name][proto].Rates()
	}

	// Finding 2.1: Cloudflare clear-text DNS fails far more often than
	// its DoT, which fails more often than its DoH.
	_, _, dnsFail := rate(global, "cloudflare", resolver.ProtoTCP)
	_, _, dotFail := rate(global, "cloudflare", resolver.ProtoDoT)
	_, _, dohFail := rate(global, "cloudflare", resolver.ProtoDoH)
	if dnsFail < 0.05 || dnsFail > 0.35 {
		t.Errorf("cloudflare DNS fail rate = %.3f (paper: 0.165)", dnsFail)
	}
	// At full scale the ordering is dns > dot > doh; at test scale a
	// single interceptor can tie the encrypted protocols, so assert the
	// robust shape: both encrypted transports fail far less than
	// clear-text DNS.
	if dotFail >= dnsFail/3 || dohFail >= dnsFail/3 {
		t.Errorf("encrypted fail rates dot=%.3f doh=%.3f not well below dns=%.3f", dotFail, dohFail, dnsFail)
	}

	// Quad9 clear-text DNS is barely affected (port filters target the
	// prominent addresses).
	_, _, q9dnsFail := rate(global, "quad9", resolver.ProtoTCP)
	if q9dnsFail > dnsFail/2 {
		t.Errorf("quad9 DNS fail %.3f not well below cloudflare %.3f", q9dnsFail, dnsFail)
	}

	// Finding 2.4: Quad9 DoH sees a substantial incorrect (SERVFAIL)
	// rate globally, but not on the censored platform.
	_, q9dohInc, _ := rate(global, "quad9", resolver.ProtoDoH)
	if q9dohInc < 0.04 || q9dohInc > 0.30 {
		t.Errorf("quad9 DoH incorrect rate = %.3f (paper: 0.13)", q9dohInc)
	}
	_, q9dohIncCN, _ := rate(censored, "quad9", resolver.ProtoDoH)
	if q9dohIncCN > q9dohInc/2 {
		t.Errorf("censored quad9 DoH incorrect %.3f not well below global %.3f", q9dohIncCN, q9dohInc)
	}

	// Finding 2.2: Google DoH is blocked for ≈100% of censored clients.
	_, _, gDoHFailCN := rate(censored, "google", resolver.ProtoDoH)
	if gDoHFailCN < 0.99 {
		t.Errorf("censored google DoH fail = %.3f, want ≈1.0", gDoHFailCN)
	}
	// ... while its clear-text DNS passes.
	_, _, gDNSFailCN := rate(censored, "google", resolver.ProtoTCP)
	if gDNSFailCN > 0.05 {
		t.Errorf("censored google DNS fail = %.3f, want ≈0", gDNSFailCN)
	}

	// Self-built resolver: near-perfect everywhere, DoQ included.
	for _, proto := range []resolver.Proto{resolver.ProtoTCP, resolver.ProtoDoT, resolver.ProtoDoH, resolver.ProtoDoQ} {
		c, _, _ := rate(global, "self-built", proto)
		if c < 0.95 {
			t.Errorf("self-built %s correct = %.3f", vantage.Label(proto), c)
		}
	}

	// Finding 2.3: some opportunistic DoT sessions are intercepted, and
	// every intercepted result still resolved correctly.
	intercepted := data.Global.Intercepted()
	if len(intercepted) == 0 {
		t.Error("no intercepted sessions observed")
	}
	for _, r := range intercepted {
		if r.Outcome != vantage.Correct || r.IssuerCN == "" {
			t.Errorf("intercepted result = %+v", r)
		}
	}
}

func TestPerfShapes(t *testing.T) {
	s := study(t)
	samples := s.PerfSamples()
	if len(samples) < s.PerfNodes/2 {
		t.Fatalf("perf samples = %d", len(samples))
	}
	dotAvg, _ := vantage.GlobalOverhead(samples, leg(resolver.ProtoDoT, vantage.ModeReused))
	dohAvg, _ := vantage.GlobalOverhead(samples, leg(resolver.ProtoDoH, vantage.ModeReused))
	// Key observation 3: with reuse, overhead is a few milliseconds.
	if dotAvg < 0 || dotAvg > 30 {
		t.Errorf("global DoT overhead = %.1f ms (want small positive)", dotAvg)
	}
	if dohAvg < -10 || dohAvg > 30 {
		t.Errorf("global DoH overhead = %.1f ms", dohAvg)
	}
	// DoQ lands in the same few-millisecond band, but on the cheap side of
	// clear-text: the UDP flight skips the TCP handshake the DNS baseline
	// pays, so a small negative overhead is the expected shape.
	doqAvg, _ := vantage.GlobalOverhead(samples, leg(resolver.ProtoDoQ, vantage.ModeReused))
	if doqAvg < -30 || doqAvg > 30 {
		t.Errorf("global DoQ overhead = %.1f ms (want small magnitude)", doqAvg)
	}
	if doqAvg >= dotAvg {
		t.Errorf("global DoQ overhead %.1f ms not below DoT's %.1f ms", doqAvg, dotAvg)
	}
}

// TestPerfSamplingAttemptsKeptPrefix pins the performance test's attempted
// set to the shortest node-order prefix holding PerfNodes successes, the
// same at any worker count. It runs under -short, so the race sweep covers
// the wave loop.
func TestPerfSamplingAttemptsKeptPrefix(t *testing.T) {
	attempted := make(map[int]int)
	for _, workers := range []int{1, 8} {
		cfg := TestConfig()
		cfg.Workers = workers
		cfg.Telemetry = true
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		samples := s.PerfSamples()
		s.Close()
		if len(samples) != cfg.PerfNodes {
			t.Fatalf("workers=%d: %d samples, want %d", workers, len(samples), cfg.PerfNodes)
		}
		last := -1
		for i, n := range s.Global.Nodes() {
			if n.ID == samples[len(samples)-1].NodeID {
				last = i
			}
		}
		nodes, nodeSpans := -1, 0
		for _, rec := range s.Obs.Records() {
			if strings.HasSuffix(rec.Path, "/perf-sampling") {
				nodes, _ = strconv.Atoi(rec.Attrs["nodes"])
			}
			if path.Base(path.Dir(rec.Path)) == "perf-sampling" && strings.HasPrefix(path.Base(rec.Path), "node:") {
				nodeSpans++
			}
		}
		if nodes != last+1 || nodeSpans != nodes {
			t.Errorf("workers=%d: perf-sampling nodes=%d with %d node spans, want both %d (last kept sample is node %d)",
				workers, nodes, nodeSpans, last+1, last)
		}
		if nodes >= cfg.GlobalNodes {
			t.Errorf("workers=%d: attempted %d of %d nodes, want fewer", workers, nodes, cfg.GlobalNodes)
		}
		attempted[workers] = nodes
	}
	if attempted[1] != attempted[8] {
		t.Errorf("attempted %d nodes at workers=1, %d at workers=8", attempted[1], attempted[8])
	}
}

func TestTrafficShapes(t *testing.T) {
	s := study(t)
	data := s.GenerateTraffic()
	if len(data.Flows) == 0 {
		t.Fatal("no DoT flows selected")
	}
	// The scanner source must be screened out.
	flagged := 0
	for _, v := range data.Verdicts {
		if v.Scanner {
			flagged++
		}
	}
	if flagged == 0 {
		t.Error("scan screening flagged nothing")
	}
	// Fig 13: four domains dominate.
	domains := data.PDNS.Domains()
	if len(domains) < 5 {
		t.Fatalf("passive DNS domains = %d", len(domains))
	}
	if domains[0].QName != "dns.google." {
		t.Errorf("top DoH domain = %s", domains[0].QName)
	}
}

func TestCertsRefTimeAligned(t *testing.T) {
	// Guard: the study's scan window ends at the certificate reference
	// instant, May 1 2019.
	if got := certs.RefTime.Format("2006-01-02"); got != "2019-05-01" {
		t.Errorf("RefTime = %s", got)
	}
}

func TestExperimentRegistry(t *testing.T) {
	exps := Experiments()
	if len(exps) != 20 {
		t.Errorf("experiments = %d, want 20", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Errorf("duplicate experiment id %q", e.ID)
		}
		seen[e.ID] = true
	}
	for _, id := range []string{"table1", "table2", "table3", "table4", "table5", "table6", "table7", "table8",
		"fig1", "fig3", "fig4", "fig9", "fig10", "fig11", "fig12", "fig13"} {
		if _, ok := ExperimentByID(id); !ok {
			t.Errorf("experiment %q missing", id)
		}
	}
	if _, ok := ExperimentByID("nope"); ok {
		t.Error("unknown experiment id resolved")
	}
}

func TestSelect(t *testing.T) {
	for _, tc := range []struct {
		list string
		want []string // nil: Select fails
	}{
		{"fig9", []string{"fig9"}},
		{"table7,fig1", []string{"table7", "fig1"}},
		{"scan", []string{"table2", "fig3", "fig4", "doh-discovery"}},
		{"clients", []string{"table3", "table4", "table5", "table6", "table7", "fig9", "fig10"}},
		{"traffic", []string{"fig11", "fig12", "fig13", "scan-screen"}},
		{"table8,traffic,fig1", []string{"table8", "fig11", "fig12", "fig13", "scan-screen", "fig1"}},
		{"nope", nil},
		{"scan,nope", nil},
		{"fig9,", nil},
		{"", nil},
	} {
		exps, err := Select(tc.list)
		if tc.want == nil {
			if err == nil {
				t.Errorf("Select(%q) succeeded, want an error", tc.list)
			}
			continue
		}
		if err != nil {
			t.Errorf("Select(%q): %v", tc.list, err)
			continue
		}
		var got []string
		for _, e := range exps {
			got = append(got, e.ID)
		}
		if strings.Join(got, " ") != strings.Join(tc.want, " ") {
			t.Errorf("Select(%q) = %v, want %v", tc.list, got, tc.want)
		}
	}
	for _, sec := range Sections() {
		for _, id := range sec.IDs {
			if _, ok := ExperimentByID(id); !ok {
				t.Errorf("section %s lists unregistered experiment %q", sec.Name, id)
			}
		}
	}
}

// Progress times every experiment RunExperiment runs, so doereport
// -timing reports an -only selection as it reports the full study.
func TestRunExperimentReportsProgress(t *testing.T) {
	var got []string
	s := &Study{Progress: func(id, _ string, _ time.Duration) { got = append(got, id) }}
	exps, err := Select("table1,fig1")
	if err != nil {
		t.Fatal(err)
	}
	for _, exp := range exps {
		if _, err := s.RunExperiment(exp); err != nil {
			t.Fatal(err)
		}
	}
	if strings.Join(got, " ") != "table1 fig1" {
		t.Errorf("progress reported %v, want [table1 fig1]", got)
	}
}

func TestRunAllProducesReport(t *testing.T) {
	s := study(t)
	var sb strings.Builder
	if err := s.RunAll(&sb); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := sb.String()
	for _, want := range []string{
		"Table 2", "Figure 3", "Figure 4", "Table 4", "Table 5",
		"Table 7", "Figure 9", "Figure 11", "Figure 12", "Figure 13",
		"cloudflare", "quad9",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	if strings.Contains(out, "ERROR") {
		idx := strings.Index(out, "ERROR")
		t.Errorf("report contains errors: ...%s", out[idx:min(len(out), idx+200)])
	}
}

func TestDeterministicReports(t *testing.T) {
	// Two studies with the same seed must produce identical static-stage
	// outputs (scans, traffic figures) — the reproducibility guarantee
	// behind EXPERIMENTS.md.
	cfg := TestConfig()
	cfg.ScanRounds = 2
	cfg.GlobalNodes = 20
	cfg.CensoredNodes = 10
	run := func() (string, string) {
		s, err := NewStudy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		scanExp, _ := ExperimentByID("table2")
		scanOut, err := scanExp.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		figExp, _ := ExperimentByID("fig11")
		figOut, err := figExp.Run(s)
		if err != nil {
			t.Fatal(err)
		}
		return scanOut, figOut
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 {
		t.Errorf("table2 not deterministic:\n%s\nvs\n%s", s1, s2)
	}
	if f1 != f2 {
		t.Errorf("fig11 not deterministic:\n%s\nvs\n%s", f1, f2)
	}
}

// matrixConfig is the miniature world the worker-count matrix runs on.
func matrixConfig() Config {
	cfg := TestConfig()
	cfg.ScanRounds = 2
	cfg.GlobalNodes = 24
	cfg.CensoredNodes = 12
	cfg.PerfNodes = 6
	cfg.PerfQueriesReused = 4
	cfg.PerfQueriesFresh = 4
	return cfg
}

// diffReports fails the test at the first diverging byte of two reports.
func diffReports(t *testing.T, labelA, a, labelB, b string) {
	t.Helper()
	if a == b {
		return
	}
	line := 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			lo, hi := max(0, i-120), min(len(a), i+120)
			hi2 := min(len(b), i+120)
			t.Fatalf("report diverges at byte %d (line %d):\n%s: ...%q...\n%s: ...%q...",
				i, line, labelA, a[lo:hi], labelB, b[lo:hi2])
		}
		if a[i] == '\n' {
			line++
		}
	}
	t.Fatalf("reports differ in length: %s %d bytes, %s %d bytes", labelA, len(a), labelB, len(b))
}

// TestReportByteIdenticalAcrossWorkerCounts is the parallel engine's
// end-to-end guarantee, with and without fault injection: the complete
// doereport output — every experiment, including the worker-sharded scans,
// campaigns, forensics and perf stages, and under faults the injected-fault
// schedules and retry recovery — must be byte-for-byte identical at any
// worker count. The matrix covers {workers 1, 4, 8} × {fault seeds 0, 1, 2}
// plus the faults-off baseline.
func TestReportByteIdenticalAcrossWorkerCounts(t *testing.T) {
	run := func(t *testing.T, workers int, fc FaultsConfig) string {
		c := matrixConfig()
		c.Workers = workers
		c.Faults = fc
		s, err := NewStudy(c)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		var b strings.Builder
		if err := s.RunAll(&b); err != nil {
			t.Fatalf("workers=%d faults=%+v: %v", workers, fc, err)
		}
		return b.String()
	}
	cases := []struct {
		name   string
		faults FaultsConfig
	}{
		{"faults-off", FaultsConfig{}},
		{"harsh-seed0", FaultsConfig{Profile: "harsh", Seed: 0}},
		{"harsh-seed1", FaultsConfig{Profile: "harsh", Seed: 1}},
		{"harsh-seed2", FaultsConfig{Profile: "harsh", Seed: 2}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if testing.Short() && tc.faults.Enabled() {
				t.Skip("faulted matrix rows skipped in -short")
			}
			t.Parallel()
			serial := run(t, 1, tc.faults)
			for _, workers := range []int{4, 8} {
				parallel := run(t, workers, tc.faults)
				diffReports(t, "workers=1", serial, fmt.Sprintf("workers=%d", workers), parallel)
			}
			if !strings.Contains(serial, "== table4") || strings.Contains(serial, "ERROR") {
				t.Fatalf("report incomplete or errored:\n%s", serial)
			}
			if tc.faults.Enabled() && !strings.Contains(serial, "== faults:") {
				t.Fatal("faulted report missing the faults summary")
			}
		})
	}
}

// TestFullScaleReportMatchesGolden pins the faults-off, default-scale report
// to the committed report_full.txt byte for byte: any change to the
// measurement pipeline that shifts a single value must regenerate the golden
// deliberately. Fault injection must never leak into the default path.
func TestFullScaleReportMatchesGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale study takes ~30s")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "report_full.txt"))
	if err != nil {
		t.Fatalf("reading committed golden: %v", err)
	}
	s, err := NewStudy(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	var b strings.Builder
	if err := s.RunAll(&b); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	diffReports(t, "golden", string(golden), "regenerated", b.String())
}

// TestStudyCloseReleasesWorld pins the lifetime contract: a study's
// services hold no goroutines, so once an experiment's connections close
// none of the goroutines the study started survive, even before Close; and
// Close removes every service, so a dropped study can be collected.
func TestStudyCloseReleasesWorld(t *testing.T) {
	before := settledGoroutines()
	s, err := NewStudy(TestConfig())
	if err != nil {
		t.Fatalf("NewStudy: %v", err)
	}
	exp, _ := ExperimentByID("table4")
	if _, err := s.RunExperiment(exp); err != nil {
		t.Fatalf("table4: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines after table4 = %d, want at most %d (before NewStudy)", runtime.NumGoroutine(), before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	s.Close()
	if n := s.World.NumListeners(); n != 0 {
		t.Errorf("NumListeners after Close = %d, want 0", n)
	}
	s.Close() // a second Close is a no-op
	if n := s.World.NumListeners(); n != 0 {
		t.Errorf("NumListeners after a second Close = %d, want 0", n)
	}
}

// settledGoroutines returns the goroutine count once it stops changing:
// the services of studies that earlier tests closed may still be exiting.
func settledGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		time.Sleep(20 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}
