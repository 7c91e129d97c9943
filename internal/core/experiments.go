package core

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"dnsencryption.info/doe/internal/analysis"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/netflow"
	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/runner"
	"dnsencryption.info/doe/internal/scanner"
	"dnsencryption.info/doe/internal/vantage"
)

// ReachabilityData bundles the §4.2 campaign outputs. The campaigns run as
// streaming folds: what survives is each platform's CampaignStats
// accumulator (tallies, retained failure/interception lists, retry and
// latency aggregates), never a per-node result slice — the contract that
// lets the same pipeline sweep a million-vantage population in bounded
// memory (DESIGN.md §15).
type ReachabilityData struct {
	Global   *vantage.CampaignStats
	Censored *vantage.CampaignStats
}

// ScanResults runs (once) and returns all §3 scan rounds.
func (s *Study) ScanResults() ([]*scanner.Result, error) {
	s.scansOnce.Do(func() {
		s.scanResults, s.scanErr = s.RunScans()
	})
	return s.scanResults, s.scanErr
}

// DoHDiscovery runs (once) the §3 DoH corpus inspection and verification.
func (s *Study) DoHDiscovery() []scanner.DoHResolver {
	s.dohOnce.Do(func() {
		candidates := scanner.InspectCorpus(s.DoHCorpus)
		d := &scanner.DoHDiscovery{
			World:       s.World,
			From:        scanSources[0],
			Roots:       s.Roots,
			Resolve:     s.DoHResolve,
			ProbeDomain: "dohprobe." + ProbeZone,
			KnownList:   s.DoHKnownList,
			Attempts:    s.retryBudget(),
		}
		s.dohFound = d.Verify(s.obsCtx(), candidates)
	})
	return s.dohFound
}

// Reachability runs (once) the §4.2 campaigns on both platforms.
func (s *Study) Reachability() *ReachabilityData {
	s.reachOnce.Do(func() {
		// The reachability test observes the May 1 resolver population.
		s.SetScanRound(s.ScanRounds - 1)
		ctx := s.obsCtx()
		campaign := func(name string, p *vantage.Platform) *vantage.CampaignStats {
			cctx, sp := obs.Start(ctx, "campaign:"+name)
			stats, _ := p.CampaignStream(cctx, s.Targets, s.Workers, vantage.CampaignOpts{
				// Table 5 probes the clients that failed Cloudflare DoT;
				// only that key's node list is retained.
				TrackFailed: []vantage.FailKey{{Resolver: "cloudflare", Proto: resolver.ProtoDoT}},
			})
			sp.SetInt("lookups", int64(stats.Lookups))
			return stats
		}
		s.reach = &ReachabilityData{
			Global:   campaign("global", s.GlobalPlatform),
			Censored: campaign("censored", s.CensoredPlatform),
		}
	})
	return s.reach
}

// PerfSamples runs (once) the §4.3 reused-connection performance test on up
// to PerfNodes global vantage points against Cloudflare.
func (s *Study) PerfSamples() []vantage.PerfSample {
	s.perfOnce.Do(func() {
		target := s.Targets[0] // cloudflare
		nodes := s.Global.Nodes()
		// The samples are the first PerfNodes successes in node order.
		// Each wave measures the next shortfall-many nodes in parallel, so
		// the attempted set is the shortest node-order prefix holding them,
		// the same at any worker count (DESIGN §6).
		type perfOutcome struct {
			sample vantage.PerfSample
			ok     bool
		}
		pctx, psp := obs.Start(obs.WithPool(s.obsCtx(), "perf"), "perf-sampling")
		attempted := 0
		for len(s.perfSamples) < s.PerfNodes && attempted < len(nodes) {
			wave := nodes[attempted:min(len(nodes), attempted+s.PerfNodes-len(s.perfSamples))]
			base := attempted
			outcomes, err := runner.MapCtx(pctx, s.Workers, len(wave), func(ctx context.Context, i int) perfOutcome {
				ctx, _ = obs.Start(ctx, "node:"+wave[i].ID, obs.Key(base+i))
				sample, err := s.GlobalPlatform.MeasurePerformanceContext(ctx, wave[i], target, s.PerfQueriesReused)
				// Afflicted vantages cannot complete all three protocols;
				// the paper's perf dataset is likewise the subset of
				// clients that can (8,257 of 29,622).
				return perfOutcome{sample: sample, ok: err == nil}
			})
			attempted += len(wave)
			for _, o := range outcomes {
				if o.ok {
					s.perfSamples = append(s.perfSamples, o.sample)
				}
			}
			if err != nil {
				break
			}
		}
		psp.SetInt("nodes", int64(attempted))
	})
	return s.perfSamples
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(s *Study) (string, error)
}

// Experiments returns the registry, in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Protocol comparison matrix", func(s *Study) (string, error) {
			return Table1().Render(), nil
		}},
		{"fig1", "Timeline of DNS privacy events", func(s *Study) (string, error) {
			return Fig1().Render(), nil
		}},
		{"table2", "Top countries of open DoT resolvers", runTable2},
		{"fig3", "Open DoT resolvers identified by each scan", runFig3},
		{"fig4", "Providers of open DoT resolvers", runFig4},
		{"doh-discovery", "DoH resolver discovery from the URL corpus", runDoHDiscovery},
		{"table3", "Evaluation of client-side dataset", runTable3},
		{"table4", "Reachability test results of public resolvers", runTable4},
		{"table5", "Ports open on 1.1.1.1 probed from failed clients", runTable5},
		{"table6", "Example clients affected by TLS interception", runTable6},
		{"table7", "Performance test results w/o connection reuse", runTable7},
		{"fig9", "Query performance per country", runFig9},
		{"fig10", "Per-client query time of DNS vs DoT/DoH", runFig10},
		{"fig11", "Monthly DoT flows to Cloudflare and Quad9", runFig11},
		{"fig12", "DoT traffic per /24 network", runFig12},
		{"fig13", "Query volume of popular DoH domains", runFig13},
		{"scan-screen", "Scanner screening of DoT client networks", runScanScreen},
		{"local-dot", "DoT support on ISP local resolvers (§3.1 limitation)", runLocalDoT},
		{"dnscrypt", "DNSCrypt end-to-end deployment check", runDNSCrypt},
		{"table8", "Implementation survey", func(s *Study) (string, error) {
			return Table8().Render(), nil
		}},
	}
}

// ExperimentByID finds one experiment.
func ExperimentByID(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// Section is one measurement stage of the paper, by name, and the
// experiments that report it.
type Section struct {
	Name string
	IDs  []string
}

// Sections returns the paper's three measurement stages: server discovery
// (§3), client-side reachability and performance (§4) and usage (§5).
func Sections() []Section {
	return []Section{
		{"scan", []string{"table2", "fig3", "fig4", "doh-discovery"}},
		{"clients", []string{"table3", "table4", "table5", "table6", "table7", "fig9", "fig10"}},
		{"traffic", []string{"fig11", "fig12", "fig13", "scan-screen"}},
	}
}

// Select resolves a comma-separated list of experiment ids and section
// names to experiments, in list order; a section expands to its
// experiments in paper order.
func Select(list string) ([]Experiment, error) {
	var exps []Experiment
	for _, name := range strings.Split(list, ",") {
		ids := []string{name}
		for _, sec := range Sections() {
			if sec.Name == name {
				ids = sec.IDs
			}
		}
		for _, id := range ids {
			exp, ok := ExperimentByID(id)
			if !ok {
				return nil, fmt.Errorf("unknown experiment or section %q", name)
			}
			exps = append(exps, exp)
		}
	}
	return exps, nil
}

func runTable2(s *Study) (string, error) {
	scans, err := s.ScanResults()
	if err != nil {
		return "", err
	}
	first := scans[0].CountryCounts()
	last := scans[len(scans)-1].CountryCounts()
	t := &analysis.Table{
		Title:   "Table 2: Top countries of open DoT resolvers (first vs last scan)",
		Columns: []string{"CC", s.ScanLabels[0], s.ScanLabels[len(s.ScanLabels)-1], "Growth"},
	}
	// Rank by first-scan count, list the top 10.
	counter := analysis.Counter{}
	for cc, n := range first {
		counter.Add(cc, n)
	}
	for _, kv := range counter.TopN(10) {
		cc := kv.K
		t.AddRow(cc, first[cc], last[cc],
			analysis.FormatGrowth(analysis.GrowthPercent(float64(first[cc]), float64(last[cc]))))
	}
	return t.Render(), nil
}

func runFig3(s *Study) (string, error) {
	scans, err := s.ScanResults()
	if err != nil {
		return "", err
	}
	fig := &analysis.Figure{
		Title:  "Figure 3: Open DoT resolvers identified by each scan",
		XLabel: "scan date", YLabel: "resolvers",
	}
	// Total plus the five largest providers of the last scan.
	lastCounts := analysis.Counter{}
	for p, n := range scans[len(scans)-1].ProviderCounts() {
		lastCounts.Add(p, n)
	}
	var top []string
	for _, kv := range lastCounts.TopN(5) {
		top = append(top, kv.K)
	}
	for _, scan := range scans {
		fig.AddPoint("total", scan.Label, float64(len(scan.Resolvers)))
		counts := scan.ProviderCounts()
		for _, p := range top {
			fig.AddPoint(p, scan.Label, float64(counts[p]))
		}
	}
	return fig.Render(), nil
}

func runFig4(s *Study) (string, error) {
	scans, err := s.ScanResults()
	if err != nil {
		return "", err
	}
	last := scans[len(scans)-1]
	counts := last.ProviderCounts()
	providers := len(counts)
	single := 0
	for _, n := range counts {
		if n == 1 {
			single++
		}
	}
	invalid := last.InvalidCertProviders()
	var invalidResolvers int
	kindCount := analysis.Counter{}
	for _, r := range last.Resolvers {
		if r.CertStatus != certs.StatusValid {
			invalidResolvers++
			kindCount.Inc(r.CertStatus.String())
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 4: Providers of open DoT resolvers (last scan, %s)\n", last.Label)
	fmt.Fprintf(&b, "providers: %d\n", providers)
	fmt.Fprintf(&b, "single-address providers: %d (%.0f%%)\n", single, 100*float64(single)/float64(providers))
	fmt.Fprintf(&b, "providers with invalid certificates: %d (%.0f%%)\n", len(invalid), 100*float64(len(invalid))/float64(providers))
	fmt.Fprintf(&b, "resolvers with invalid certificates: %d of %d\n", invalidResolvers, len(last.Resolvers))
	for _, kv := range kindCount.TopN(10) {
		fmt.Fprintf(&b, "  %s: %d\n", kv.K, kv.V)
	}
	// CDF of addresses per provider.
	var sizes []float64
	for _, n := range counts {
		sizes = append(sizes, float64(n))
	}
	fmt.Fprintf(&b, "addresses-per-provider CDF:\n")
	for _, p := range analysis.CDF(sizes) {
		fmt.Fprintf(&b, "  <=%3.0f addrs: %.2f\n", p.X, p.F)
	}
	return b.String(), nil
}

func runDoHDiscovery(s *Study) (string, error) {
	found := s.DoHDiscovery()
	t := &analysis.Table{
		Title:   "DoH resolvers discovered from the URL corpus (§3.2)",
		Columns: []string{"Template", "Address", "On public list"},
	}
	beyond := 0
	for _, r := range found {
		onList := "yes"
		if !r.InKnownList {
			onList = "no (new)"
			beyond++
		}
		t.AddRow(r.Template.String(), r.Addr, onList)
	}
	out := t.Render()
	out += fmt.Sprintf("total: %d public DoH resolvers (%d beyond the curated list)\n", len(found), beyond)
	return out, nil
}

func runTable3(s *Study) (string, error) {
	t := &analysis.Table{
		Title:   "Table 3: Evaluation of client-side dataset",
		Columns: []string{"Platform", "# Endpoints", "# Countries", "# ASes"},
	}
	gNodes := s.Global.Nodes()
	cNodes := s.Censored.Nodes()
	gc, ga := map[string]bool{}, map[int]bool{}
	for _, n := range gNodes {
		gc[n.Country] = true
		ga[n.ASN] = true
	}
	cc, ca := map[string]bool{}, map[int]bool{}
	for _, n := range cNodes {
		cc[n.Country] = true
		ca[n.ASN] = true
	}
	t.AddRow("proxyrack (global)", len(gNodes), len(gc), len(ga))
	t.AddRow("zhima (censored)", len(cNodes), len(cc), len(ca))
	return t.Render(), nil
}

func runTable4(s *Study) (string, error) {
	data := s.Reachability()
	t := &analysis.Table{
		Title:   "Table 4: Reachability test results of public resolvers",
		Columns: []string{"Platform", "Resolver", "Proto", "Correct", "Incorrect", "Failed"},
	}
	resolverOrder := []string{"cloudflare", "google", "quad9", "self-built"}
	protoOrder := []resolver.Proto{resolver.ProtoTCP, resolver.ProtoDoT, resolver.ProtoDoH, resolver.ProtoDoQ}
	addRows := func(platform string, stats *vantage.CampaignStats) {
		tallies := stats.ByResolverProto()
		for _, name := range resolverOrder {
			byProto, ok := tallies[name]
			if !ok {
				continue
			}
			for _, proto := range protoOrder {
				tally, ok := byProto[proto]
				if !ok {
					t.AddRow(platform, name, vantage.Label(proto), "n/a", "n/a", "n/a")
					continue
				}
				c, i, f := tally.Rates()
				t.AddRow(platform, name, vantage.Label(proto),
					fmt.Sprintf("%.2f%%", c*100),
					fmt.Sprintf("%.2f%%", i*100),
					fmt.Sprintf("%.2f%%", f*100))
			}
		}
	}
	addRows("proxyrack", data.Global)
	addRows("zhima", data.Censored)
	return t.Render(), nil
}

func runTable5(s *Study) (string, error) {
	data := s.Reachability()
	refs := data.Global.FailedRefs(vantage.FailKey{Resolver: "cloudflare", Proto: resolver.ProtoDoT})
	failed := make([]string, len(refs))
	for i, ref := range refs {
		failed[i] = ref.ID
	}
	nodesByID := map[string]proxy.ExitNode{}
	for _, n := range s.Global.Nodes() {
		nodesByID[n.ID] = n
	}
	// Probes fan out per failed node; the tallies are folded in
	// failed-list order so counts and example ASes match a serial pass.
	type table5Probe struct {
		probe vantage.PortProbe
		node  proxy.ExitNode
		ok    bool
	}
	probes, _ := runner.MapCtx(obs.WithPool(s.obsCtx(), "table5-probes"), s.Workers, len(failed),
		func(ctx context.Context, i int) table5Probe {
			node, ok := nodesByID[failed[i]]
			if !ok {
				return table5Probe{}
			}
			_, sp := obs.Start(ctx, "probe:"+failed[i], obs.Key(i))
			p := s.GlobalPlatform.ProbePorts(node, cloudflareDNS, vantage.Table5Ports)
			sp.SetInt("open_ports", int64(len(p.Open)))
			return table5Probe{probe: p, node: node, ok: true}
		})
	portCount := analysis.Counter{}
	deviceCount := analysis.Counter{}
	none := 0
	var exampleAS []string
	for _, p := range probes {
		if !p.ok {
			continue
		}
		if !p.probe.HasAnyOpen() {
			none++
		}
		for _, port := range p.probe.Open {
			portCount.Inc(fmt.Sprintf("%d", port))
		}
		deviceCount.Inc(vantage.IdentifyDevice(p.probe))
		if len(exampleAS) < 5 {
			exampleAS = append(exampleAS, fmt.Sprintf("AS%d %s", p.node.ASN, p.node.ASName))
		}
	}
	t := &analysis.Table{
		Title:   "Table 5: Ports open on 1.1.1.1, probed from clients failing Cloudflare DoT",
		Columns: []string{"Port", "# Clients"},
	}
	t.AddRow("none", none)
	var ports []string
	for p := range portCount {
		ports = append(ports, p)
	}
	sort.Slice(ports, func(i, j int) bool { return atoiSafe(ports[i]) < atoiSafe(ports[j]) })
	for _, p := range ports {
		t.AddRow(p, portCount[p])
	}
	out := t.Render()
	out += "device identification of conflicting hosts:\n"
	for _, kv := range deviceCount.TopN(10) {
		out += fmt.Sprintf("  %-45s %d\n", kv.K, kv.V)
	}
	if len(exampleAS) > 0 {
		out += "example affected ASes: " + strings.Join(exampleAS, "; ") + "\n"
	}
	return out, nil
}

func runTable6(s *Study) (string, error) {
	data := s.Reachability()
	intercepted := append(data.Global.Intercepted(), data.Censored.Intercepted()...)
	t := &analysis.Table{
		Title:   "Table 6: Example clients affected by TLS interception",
		Columns: []string{"Node", "Country", "AS", "Issuer CN (untrusted CA)", "Resolver", "Proto"},
	}
	for _, r := range intercepted {
		t.AddRow(r.NodeID, r.Country, fmt.Sprintf("AS%d %s", r.ASN, r.ASName), r.IssuerCN, r.Resolver, vantage.Label(r.Proto))
	}
	out := t.Render()
	out += fmt.Sprintf("intercepted sessions recorded by middleboxes: %d\n", s.interceptorSessions())
	return out, nil
}

func (s *Study) interceptorSessions() int {
	n := 0
	for _, box := range s.Interceptors {
		n += len(box.Sessions())
	}
	return n
}

func runTable7(s *Study) (string, error) {
	t := &analysis.Table{
		Title:   "Table 7: Performance test results w/o connection reuse (medians, ms)",
		Columns: []string{"Vantage", "DNS/TCP", "DoT (overhead)", "DoH (overhead)", "DoQ (overhead)"},
	}
	// The four controlled vantages measure concurrently; each derives its
	// probe names from its own label, so measurements are independent and
	// the table rows stay in ControlledVantages order.
	type table7Row struct {
		sample vantage.NoReuseSample
		err    error
	}
	// Under fault injection the transports carry the retry budget; failed
	// queries are skipped inside MeasureNoReuseContext, so a lossy path
	// thins the sample instead of sinking the vantage.
	opts := s.transportOptions()
	rows, _ := runner.MapCtx(obs.WithPool(s.obsCtx(), "noreuse"), s.Workers, len(ControlledVantages),
		func(ctx context.Context, i int) table7Row {
			v := ControlledVantages[i]
			ctx, _ = obs.Start(ctx, "vantage:"+v.Label, obs.Key(i))
			sample, err := vantage.MeasureNoReuseContext(ctx, s.World, v.Label, v.Addr, s.Targets[0], ProbeZone, s.Roots, s.PerfQueriesFresh, opts...)
			return table7Row{sample: sample, err: err}
		})
	for i, row := range rows {
		if row.err != nil {
			return "", fmt.Errorf("vantage %s: %w", ControlledVantages[i].Label, row.err)
		}
		m := row.sample.Medians
		cell := func(p resolver.Proto, format string) string {
			oh, _ := m.OverheadMS(leg(p, vantage.ModeFresh))
			return fmt.Sprintf(format, m[leg(p, vantage.ModeFresh)], oh)
		}
		// DoQ's no-reuse column is softer than DoT/DoH's: only the first
		// dial pays the 1-RTT handshake, later dials resume 0-RTT from the
		// shared session cache — the overhead reflects QUIC resumption.
		t.AddRow(ControlledVantages[i].Label,
			fmt.Sprintf("%.1f", m[leg(resolver.ProtoTCP, vantage.ModeFresh)]),
			cell(resolver.ProtoDoT, "%.1f (+%.1f)"),
			cell(resolver.ProtoDoH, "%.1f (+%.1f)"),
			cell(resolver.ProtoDoQ, "%.1f (%+.1f)"))
	}
	return t.Render(), nil
}

// leg names one vantage timing pass.
func leg(p resolver.Proto, m vantage.Mode) vantage.Leg { return vantage.Leg{Proto: p, Mode: m} }

func runFig9(s *Study) (string, error) {
	samples := s.PerfSamples()
	agg := vantage.AggregateByCountry(samples)
	t := &analysis.Table{
		Title:   "Figure 9: Query performance per country (overheads vs clear-text DNS, ms)",
		Columns: []string{"CC", "Clients", "DoT avg", "DoT median", "DoH avg", "DoH median", "DoQ avg", "DoQ median", "DoT mux", "DoH mux", "DoQ mux"},
	}
	serial := []vantage.Leg{leg(resolver.ProtoDoT, vantage.ModeReused), leg(resolver.ProtoDoH, vantage.ModeReused),
		leg(resolver.ProtoDoQ, vantage.ModeReused)}
	mux := []vantage.Leg{leg(resolver.ProtoDoT, vantage.ModeMux), leg(resolver.ProtoDoH, vantage.ModeMux),
		leg(resolver.ProtoDoQ, vantage.ModeMux)}
	for _, c := range agg {
		row := []any{c.Country, c.Clients}
		for _, l := range serial {
			row = append(row, fmt.Sprintf("%+.1f", c.AvgMS[l]), fmt.Sprintf("%+.1f", c.MedianMS[l]))
		}
		for _, l := range mux {
			row = append(row, fmt.Sprintf("%+.1f", c.MedianMS[l]))
		}
		t.AddRow(row...)
	}
	dotAvg, dotMed := vantage.GlobalOverhead(samples, serial[0])
	dohAvg, dohMed := vantage.GlobalOverhead(samples, serial[1])
	out := t.Render()
	out += fmt.Sprintf("global overhead — DoT: %+.1f/%+.1f ms (avg/med), DoH: %+.1f/%+.1f ms (avg/med), clients: %d\n",
		dotAvg, dotMed, dohAvg, dohMed, len(samples))
	doqAvg, doqMed := vantage.GlobalOverhead(samples, serial[2])
	_, doqMux := vantage.GlobalOverhead(samples, mux[2])
	out += fmt.Sprintf("global overhead — DoQ: %+.1f/%+.1f ms (avg/med), mux median: %+.1f ms\n",
		doqAvg, doqMed, doqMux)
	mDotAvg, mDotMed := vantage.GlobalOverhead(samples, mux[0])
	mDohAvg, mDohMed := vantage.GlobalOverhead(samples, mux[1])
	out += fmt.Sprintf("multiplexed (inflight=%d) — DoT: %+.1f/%+.1f ms (avg/med), DoH: %+.1f/%+.1f ms (avg/med)\n",
		s.MuxInFlight, mDotAvg, mDotMed, mDohAvg, mDohMed)
	return out, nil
}

func runFig10(s *Study) (string, error) {
	samples := s.PerfSamples()
	var b strings.Builder
	b.WriteString("Figure 10: Per-client query time (ms): DNS vs DoT and DNS vs DoH\n")
	b.WriteString("node            cc  dns      dot      doh\n")
	dns, dot, doh := leg(resolver.ProtoTCP, vantage.ModeReused), leg(resolver.ProtoDoT, vantage.ModeReused),
		leg(resolver.ProtoDoH, vantage.ModeReused)
	near := 0
	for _, sm := range samples {
		m := sm.Medians
		fmt.Fprintf(&b, "%-15s %-3s %-8.1f %-8.1f %-8.1f\n", sm.NodeID, sm.Country, m[dns], m[dot], m[doh])
		dotOH, _ := m.OverheadMS(dot)
		dohOH, _ := m.OverheadMS(doh)
		if absF(dotOH) <= 10 && absF(dohOH) <= 10 {
			near++
		}
	}
	fmt.Fprintf(&b, "clients within ±10ms of the y=x line for both protocols: %d of %d (%.0f%%)\n",
		near, len(samples), 100*float64(near)/float64(max(1, len(samples))))
	return b.String(), nil
}

func runFig11(s *Study) (string, error) {
	data := s.GenerateTraffic()
	counts := netflow.MonthlyCounts(data.Flows)
	fig := &analysis.Figure{
		Title:  "Figure 11: Monthly DoT flows to Cloudflare and Quad9 (sampled NetFlow)",
		XLabel: "month", YLabel: "flows",
	}
	for _, provider := range []string{"cloudflare", "quad9"} {
		months := make([]string, 0, len(counts[provider]))
		for m := range counts[provider] {
			months = append(months, m)
		}
		sort.Strings(months)
		for _, m := range months {
			fig.AddPoint(provider, m, float64(counts[provider][m]))
		}
	}
	out := fig.Render()
	jul := counts["cloudflare"]["2018-07"]
	dec := counts["cloudflare"]["2018-12"]
	if jul > 0 {
		out += fmt.Sprintf("cloudflare Jul→Dec 2018 growth: %s (paper: +56%%)\n",
			analysis.FormatGrowth(analysis.GrowthPercent(float64(jul), float64(dec))))
	}
	return out, nil
}

func runFig12(s *Study) (string, error) {
	data := s.GenerateTraffic()
	stats := netflow.NetblockStats(data.Flows, "cloudflare")
	var b strings.Builder
	b.WriteString("Figure 12: Cloudflare DoT traffic per /24 network\n")
	fmt.Fprintf(&b, "netblocks: %d\n", len(stats))
	fmt.Fprintf(&b, "top-5 netblock share of flows: %.0f%% (paper: 44%%)\n", 100*netflow.TopShare(stats, 5))
	fmt.Fprintf(&b, "top-20 netblock share of flows: %.0f%% (paper: 60%%)\n", 100*netflow.TopShare(stats, 20))
	fmt.Fprintf(&b, "netblocks active < 1 week: %.0f%% (paper: 96%%)\n", 100*netflow.TemporaryFraction(stats, 7))
	b.WriteString("top netblocks (flows, active days):\n")
	for i, st := range stats {
		if i >= 10 {
			break
		}
		fmt.Fprintf(&b, "  %-15s %6d flows, %3d days\n", st.Client24, st.Flows, st.ActiveDays)
	}
	return b.String(), nil
}

func runFig13(s *Study) (string, error) {
	data := s.GenerateTraffic()
	fig := &analysis.Figure{
		Title:  "Figure 13: Monthly query volume of popular DoH domains (passive DNS)",
		XLabel: "month", YLabel: "queries",
	}
	popular := []string{"dns.google", "mozilla.cloudflare-dns.com", "doh.cleanbrowsing.org", "doh.crypto.sx"}
	for _, domain := range popular {
		for _, p := range data.PDNS.MonthlyVolume(domain) {
			fig.AddPoint(domain, p.Day, float64(p.Count))
		}
	}
	out := fig.Render()
	// §5.3's threshold observation.
	over10k := 0
	for _, agg := range data.PDNS.Domains() {
		if agg.Count > 10000 {
			over10k++
		}
	}
	out += fmt.Sprintf("domains with >10K total queries: %d (paper: 4 of 17)\n", over10k)
	cb := data.PDNS.MonthlyVolume("doh.cleanbrowsing.org")
	if len(cb) >= 2 {
		first, last := cb[0], cb[len(cb)-1]
		out += fmt.Sprintf("cleanbrowsing %s→%s growth: %.1fx (paper: ~10x)\n",
			first.Day, last.Day, float64(last.Count)/float64(max(1, first.Count)))
	}
	return out, nil
}

func runScanScreen(s *Study) (string, error) {
	data := s.GenerateTraffic()
	t := &analysis.Table{
		Title:   "Scanner screening of port-853 sources (§5.2)",
		Columns: []string{"Source", "Scanner", "Reason", "Fanout", "SYN-only"},
	}
	flagged := 0
	for _, v := range data.Verdicts {
		if v.Scanner {
			flagged++
			t.AddRow(v.Source, "yes", v.Reason, v.DistinctDsts, fmt.Sprintf("%.0f%%", v.SYNOnlyFraction*100))
		}
	}
	out := t.Render()
	out += fmt.Sprintf("sources analysed: %d, flagged as scanners: %d (excluded before Figs. 11-12)\n",
		len(data.Verdicts), flagged)
	return out, nil
}

func atoiSafe(s string) int {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			return 1 << 30
		}
		n = n*10 + int(c-'0')
	}
	return n
}

func absF(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
