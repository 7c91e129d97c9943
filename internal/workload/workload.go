// Package workload synthesizes the long-term traffic the paper's passive
// datasets observed: 18 months of DoT flows toward public resolvers through
// the ISP backbone (feeding internal/netflow), port-853 scanning campaigns
// (exercising internal/scandetect), and DoH bootstrap-domain lookups
// (feeding internal/passivedns).
//
// The real traffic is proprietary; this generator is the documented
// substitution. Its knobs — monthly volumes, giant-netblock share,
// temporary-user churn, per-domain growth curves — are calibrated in
// internal/core so the pipeline reproduces the *shapes* of Figs. 11–13.
package workload

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sort"
	"time"

	"dnsencryption.info/doe/internal/netflow"
	"dnsencryption.info/doe/internal/passivedns"
)

// Month is a "2006-01" label.
type Month = string

// MonthsBetween lists months from first to last inclusive.
func MonthsBetween(first, last Month) []Month {
	start, err := time.Parse("2006-01", first)
	if err != nil {
		panic(fmt.Sprintf("workload: bad month %q", first))
	}
	end, err := time.Parse("2006-01", last)
	if err != nil {
		panic(fmt.Sprintf("workload: bad month %q", last))
	}
	var out []Month
	for m := start; !m.After(end); m = m.AddDate(0, 1, 0) {
		out = append(out, m.Format("2006-01"))
	}
	return out
}

// ProviderTraffic describes one resolver's organic DoT adoption.
type ProviderTraffic struct {
	Provider string
	Resolver netip.Addr
	// MonthlyFlows is the organic (pre-sampling) flow count per month;
	// months absent from the map see no traffic (service not launched).
	MonthlyFlows map[Month]int
}

// DoTGenerator synthesizes client DoT flows.
type DoTGenerator struct {
	Seed      int64
	Providers []ProviderTraffic
	// GiantNetblocks is how many heavy /24s exist (§5.2: the top five
	// /24s carry 44% of Cloudflare's DoT flows; giants are ISP NAT or
	// proxy egresses active for weeks or months).
	GiantNetblocks int
	// GiantShare is the fraction of each month's flows from giants.
	GiantShare float64
	// MediumNetblocks/MediumShare form the next tier (§5.2: the top 20
	// /24s carry 60% of flows).
	MediumNetblocks int
	MediumShare     float64
	// LongTempFraction is the share of temporary netblocks whose burst
	// spans more than a week (§5.2: 96% are active less than one week,
	// so about 4% persist longer).
	LongTempFraction float64
	// TempFlowsEach is roughly how many flows one temporary netblock
	// produces inside its short activity window.
	TempFlowsEach int
	// PacketsPerFlow is the mean packet count of one DoT session.
	PacketsPerFlow int
	// ClientBase is the first address of the client /24 pool.
	ClientBase netip.Addr
}

// NewDoTGenerator returns a generator with study defaults.
func NewDoTGenerator(seed int64) *DoTGenerator {
	return &DoTGenerator{
		Seed:             seed,
		GiantNetblocks:   5,
		GiantShare:       0.44,
		MediumNetblocks:  15,
		MediumShare:      0.16,
		LongTempFraction: 0.045,
		TempFlowsEach:    3,
		PacketsPerFlow:   10,
		ClientBase:       netip.MustParseAddr("40.0.0.0"),
	}
}

func (g *DoTGenerator) client24(index int) netip.Addr {
	base := g.ClientBase.As4()
	v := uint32(base[0])<<24 | uint32(base[1])<<16 | uint32(base[2])<<8
	v += uint32(index) << 8
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), 0})
}

// Generate feeds the whole period's packets through the router in time
// order and returns the number of organic flows produced.
func (g *DoTGenerator) Generate(router *netflow.Router) int {
	rng := rand.New(rand.NewSource(g.Seed))
	months := map[Month]bool{}
	for _, p := range g.Providers {
		for m := range p.MonthlyFlows {
			months[m] = true
		}
	}
	ordered := sortedMonths(months)

	tempIndex := g.GiantNetblocks + g.MediumNetblocks // temps after the heavy tiers
	totalFlows := 0
	type flowPlan struct {
		at       time.Time
		client   netip.Addr
		resolver netip.Addr
	}
	var plans []flowPlan // one month's flows; reused across months
	for _, month := range ordered {
		start, _ := time.Parse("2006-01", month)
		plans = plans[:0]
		for _, p := range g.Providers {
			n := p.MonthlyFlows[month]
			if n == 0 {
				continue
			}
			totalFlows += n
			giants := int(float64(n) * g.GiantShare)
			for i := 0; i < giants; i++ {
				day := rng.Intn(28)
				client := g.client24(rng.Intn(g.GiantNetblocks))
				plans = append(plans, flowPlan{
					at:       start.AddDate(0, 0, day).Add(time.Duration(rng.Intn(86400)) * time.Second),
					client:   client,
					resolver: p.Resolver,
				})
			}
			mediums := 0
			if g.MediumNetblocks > 0 {
				mediums = int(float64(n) * g.MediumShare)
				for i := 0; i < mediums; i++ {
					day := rng.Intn(28)
					client := g.client24(g.GiantNetblocks + rng.Intn(g.MediumNetblocks))
					plans = append(plans, flowPlan{
						at:       start.AddDate(0, 0, day).Add(time.Duration(rng.Intn(86400)) * time.Second),
						client:   client,
						resolver: p.Resolver,
					})
				}
			}
			// Temporary users: short bursts from fresh netblocks.
			remaining := n - giants - mediums
			for remaining > 0 {
				windowDays := 1 + rng.Intn(5) // active < 1 week
				burst := g.TempFlowsEach
				if rng.Float64() < g.LongTempFraction {
					// The persistent ≈4%: active for one to three
					// weeks, one flow per active day.
					windowDays = 8 + rng.Intn(14)
					burst = windowDays
				}
				windowStart := rng.Intn(max(1, 28-windowDays))
				if burst > remaining {
					burst = remaining
				}
				remaining -= burst
				client := g.client24(tempIndex)
				tempIndex++
				for i := 0; i < burst; i++ {
					day := windowStart + i*windowDays/burst
					plans = append(plans, flowPlan{
						at:       start.AddDate(0, 0, day).Add(time.Duration(rng.Intn(86400)) * time.Second),
						client:   client,
						resolver: p.Resolver,
					})
				}
			}
		}
		sort.Slice(plans, func(i, j int) bool { return plans[i].at.Before(plans[j].at) })
		for _, plan := range plans {
			g.emitFlow(router, rng, plan.at, plan.client, plan.resolver)
		}
	}
	return totalFlows
}

func sortedMonths(set map[Month]bool) []Month {
	out := make([]Month, 0, len(set))
	for m := range set {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// emitFlow produces one DoT session's packets: handshake, framed queries,
// teardown. The client host byte varies within the /24.
func (g *DoTGenerator) emitFlow(router *netflow.Router, rng *rand.Rand, at time.Time, client24, resolver netip.Addr) {
	b := client24.As4()
	b[3] = byte(1 + rng.Intn(254))
	src := netip.AddrFrom4(b)
	srcPort := uint16(32768 + rng.Intn(28000))
	pkts := g.PacketsPerFlow/2 + rng.Intn(g.PacketsPerFlow)
	if pkts < 3 {
		pkts = 3
	}
	for i := 0; i < pkts; i++ {
		flags := netflow.FlagACK
		switch i {
		case 0:
			flags = netflow.FlagSYN
		case pkts - 1:
			flags = netflow.FlagFIN | netflow.FlagACK
		default:
			if rng.Intn(2) == 0 {
				flags |= netflow.FlagPSH
			}
		}
		router.Observe(netflow.Packet{
			Time:    at.Add(time.Duration(i) * 200 * time.Millisecond),
			Src:     src,
			Dst:     resolver,
			SrcPort: srcPort,
			DstPort: 853,
			Proto:   netflow.ProtoTCP,
			Bytes:   100 + rng.Intn(400),
			Flags:   flags,
		})
	}
}

// GenerateScan emits a port-853 SYN sweep from one source across many
// destinations on a single day — the kind of traffic §5.2 screens out.
func GenerateScan(router *netflow.Router, src netip.Addr, at time.Time, destinations int) {
	for i := 0; i < destinations; i++ {
		dst := netip.AddrFrom4([4]byte{60, byte(i >> 16), byte(i >> 8), byte(i)})
		router.Observe(netflow.Packet{
			Time:    at.Add(time.Duration(i) * 50 * time.Millisecond),
			Src:     src,
			Dst:     dst,
			SrcPort: 45000,
			DstPort: 853,
			Proto:   netflow.ProtoTCP,
			Bytes:   44,
			Flags:   netflow.FlagSYN,
		})
	}
}

// DoHDomainTraffic describes lookups of one DoH bootstrap domain.
type DoHDomainTraffic struct {
	Domain string
	// MonthlyQueries per month; the passive DNS sensor records them
	// spread across the month's days.
	MonthlyQueries map[Month]int
}

// GenerateDoH feeds bootstrap-domain lookups into the passive DNS DB.
func GenerateDoH(db *passivedns.DB, domains []DoHDomainTraffic) {
	for _, d := range domains {
		for month, n := range d.MonthlyQueries {
			start, err := time.Parse("2006-01", month)
			if err != nil || n <= 0 {
				continue
			}
			perDay := n / 28
			extra := n - perDay*28
			for day := 0; day < 28; day++ {
				count := perDay
				if day < extra {
					count++
				}
				if count > 0 {
					db.ObserveCount(start.AddDate(0, 0, day), d.Domain, count)
				}
			}
		}
	}
}
