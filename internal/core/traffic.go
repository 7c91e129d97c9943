package core

import (
	"fmt"
	"math"
	"net/netip"
	"sort"
	"time"

	"dnsencryption.info/doe/internal/netflow"
	"dnsencryption.info/doe/internal/passivedns"
	"dnsencryption.info/doe/internal/scandetect"
	"dnsencryption.info/doe/internal/workload"
)

// TrafficData is the §5 dataset: 18 months of sampled NetFlow (screened for
// scanners) and the passive DNS databases.
type TrafficData struct {
	// Records is the raw sampled flow export.
	Records []netflow.Record
	// Verdicts is the scan screening over the raw records.
	Verdicts []scandetect.Verdict
	// Flows is the DoT selection over the organic records.
	Flows []netflow.DoTFlow
	// PDNS is the passive DNS database.
	PDNS *passivedns.DB
}

var trafficMonths = workload.MonthsBetween("2017-07", "2019-01")

// cloudflareMonthlyFlows interpolates Cloudflare's DoT volume: launch in
// April 2018, 4,674 sampled flows in Jul 2018 growing 56% to 7,318 by Dec
// 2018 (Fig. 11).
func cloudflareMonthlyFlows(scale float64) map[workload.Month]int {
	anchor := map[workload.Month]float64{
		"2018-04": 2400, "2018-05": 3200, "2018-06": 4000,
		"2018-07": 4674, "2018-08": 5100, "2018-09": 5600,
		"2018-10": 6200, "2018-11": 6800, "2018-12": 7318,
		"2019-01": 7100,
	}
	out := make(map[workload.Month]int, len(anchor))
	for m, v := range anchor {
		out[m] = int(v * scale)
	}
	return out
}

// quad9MonthlyFlows fluctuates through the whole window (Fig. 11).
func quad9MonthlyFlows(scale float64) map[workload.Month]int {
	out := make(map[workload.Month]int, len(trafficMonths))
	levels := []float64{700, 900, 650, 1100, 800, 1250, 950, 700, 1200, 850,
		1000, 780, 1150, 900, 1050, 820, 980, 1100, 940}
	for i, m := range trafficMonths {
		out[m] = int(levels[i%len(levels)] * scale)
	}
	return out
}

// dohDomainTraffic calibrates Fig. 13: Google DoH orders of magnitude above
// the rest with the longest history (since 2016); Cloudflare strong since
// the Firefox experiments; CleanBrowsing growing ~10x from Sep 2018 (200
// recorded queries) to Mar 2019 (1,915); crypto.sx small but growing.
func dohDomainTraffic(scale float64) []workload.DoHDomainTraffic {
	grow := func(first workload.Month, last workload.Month, from, to float64) map[workload.Month]int {
		months := workload.MonthsBetween(first, last)
		out := make(map[workload.Month]int, len(months))
		n := len(months)
		for i, m := range months {
			v := from
			if n > 1 {
				v = from * math.Pow(to/from, float64(i)/float64(n-1))
			}
			out[m] = int(v * scale)
		}
		return out
	}
	return []workload.DoHDomainTraffic{
		{Domain: "dns.google", MonthlyQueries: grow("2016-04", "2019-03", 220000, 740000)},
		{Domain: "mozilla.cloudflare-dns.com", MonthlyQueries: grow("2018-04", "2019-03", 9000, 64000)},
		{Domain: "doh.cleanbrowsing.org", MonthlyQueries: grow("2018-09", "2019-03", 200, 1915)},
		{Domain: "doh.crypto.sx", MonthlyQueries: grow("2018-03", "2019-03", 60, 820)},
		// The remaining 13 public DoH services see negligible lookups
		// (§5.3: "only 4 domains have more than 10K queries").
		{Domain: "doh.securedns.eu", MonthlyQueries: grow("2018-06", "2019-03", 30, 300)},
		{Domain: "doh.blahdns.com", MonthlyQueries: grow("2018-08", "2019-03", 20, 180)},
		{Domain: "dns.233py.com", MonthlyQueries: grow("2018-10", "2019-03", 10, 90)},
	}
}

func mustMonth(m string) time.Time {
	t, err := time.Parse("2006-01", m)
	if err != nil {
		panic(err)
	}
	return t
}

// The ISP router's NetFlow settings. The paper's ISP sampled 1 in 3,000
// packets on the unsampled backbone; with scaled volumes 1 in 3 keeps the
// sampler exercised while retaining statistical mass. Flows expire after
// 15 idle seconds, as at the ISP.
const (
	netFlowSampleRate = 3
	netFlowIdleExpiry = 15 * time.Second
)

// GenerateTraffic synthesizes the §5 datasets once per study.
func (s *Study) GenerateTraffic() *TrafficData {
	s.trafficOnce.Do(func() {
		router := netflow.NewRouter(netFlowSampleRate, netFlowIdleExpiry)
		gen := workload.NewDoTGenerator(s.Seed + 51)
		gen.Providers = []workload.ProviderTraffic{
			{Provider: "cloudflare", Resolver: cloudflareDNS, MonthlyFlows: cloudflareMonthlyFlows(s.TrafficScale)},
			{Provider: "quad9", Resolver: quad9Addr, MonthlyFlows: quad9MonthlyFlows(s.TrafficScale)},
		}
		gen.Generate(router)
		// A research scanner sweeps port 853 during the window; the
		// screening must remove it before analysis (§5.2).
		scanSrc := netip.MustParseAddr("172.16.3.1")
		workload.GenerateScan(router, scanSrc, mustMonth("2018-09").AddDate(0, 0, 3), 300)

		// The router's flows travel to the collector as genuine NetFlow
		// v5 export datagrams, as at the paper's ISP. v5 uptime counters
		// wrap every ~49.7 days, so flows are exported in monthly
		// batches shortly after observation (as real exporters flush
		// within seconds of expiry). Flush orders the records by
		// first-seen time, so each month is one run of them and the
		// batches go out in calendar order. Every batch decodes into one
		// slice sized for all of them.
		flushed := router.Flush()
		sysBoot := mustMonth("2017-06")
		records := make([]netflow.Record, 0, len(flushed))
		seq := uint32(0)
		for len(flushed) > 0 {
			// A month's run ends at the first record of a later month,
			// and its batch goes out as that month begins.
			first := flushed[0].First
			y, m, _ := first.Date()
			exportAt := time.Date(y, m+1, 1, 0, 0, 0, 0, first.Location())
			n := sort.Search(len(flushed), func(i int) bool { return !flushed[i].First.Before(exportAt) })
			batch := flushed[:n]
			flushed = flushed[n:]
			datagrams, err := netflow.ExportV5(batch, sysBoot, exportAt, netFlowSampleRate, seq)
			if err != nil {
				panic(fmt.Sprintf("core: netflow export: %v", err))
			}
			for _, d := range datagrams {
				if records, err = netflow.AppendV5(records, d); err != nil {
					panic(fmt.Sprintf("core: netflow decode: %v", err))
				}
			}
			seq += uint32(len(batch))
		}
		detector := scandetect.NewDetector(853)
		detector.ReverseNames = func(ip netip.Addr) []string {
			if ip == scanSrc {
				return []string{"scanner." + ProbeZone}
			}
			return nil
		}
		verdicts := detector.Classify(records)
		organic := scandetect.FilterOrganic(records, verdicts)

		analyzer := &netflow.Analyzer{Resolvers: s.DoTResolvers}
		flows := analyzer.SelectDoT(organic)

		pdns := passivedns.NewDB()
		workload.GenerateDoH(pdns, dohDomainTraffic(s.TrafficScale))

		s.traffic = &TrafficData{
			Records:  records,
			Verdicts: verdicts,
			Flows:    flows,
			PDNS:     pdns,
		}
	})
	return s.traffic
}
