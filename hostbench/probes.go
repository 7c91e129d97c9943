package main

import (
	"fmt"
	"net/netip"
	"runtime"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/proxy"
)

// probe times one public call of a layer in a loop. Each probe isolates a
// cost the workloads pay at scale, so a change to that layer shows here
// even when the end-to-end numbers hide it.
type probe struct {
	name string
	op   func(i int) error
}

// probeNode is the exit node the proxy_dial probe tunnels through. It is
// added to the global platform with an unlimited session budget, in a
// prefix no generated node uses, so no policy or churn touches it.
var probeNode = proxy.ExitNode{
	ID:       "hostbench-probe",
	Addr:     netip.MustParseAddr("10.250.0.1"),
	Country:  "US",
	ASN:      64999,
	ASName:   "Probe ISP",
	Lifetime: 1 << 62,
}

// runProbes builds a study world and measures every probe on it.
func runProbes(spec childSpec) (record, error) {
	cfg := core.DefaultConfig()
	budget := 200 * time.Millisecond
	if spec.Smoke {
		cfg = core.TestConfig()
		budget = 5 * time.Millisecond
	}
	cfg.Seed = spec.Seed
	cfg.Workers = workers
	study, err := core.NewStudy(cfg)
	if err != nil {
		return record{}, fmt.Errorf("building study world: %w", err)
	}
	probes, err := buildProbes(study)
	if err != nil {
		return record{}, err
	}
	rec := record{Metrics: map[string]float64{}}
	for _, p := range probes {
		ns, allocs, err := measure(p.op, budget)
		if err != nil {
			return record{}, fmt.Errorf("probe %s: %w", p.name, err)
		}
		rec.Metrics["probe."+p.name+".ns_per_op"] = ns
		rec.Metrics["probe."+p.name+".allocs_per_op"] = allocs
	}
	return rec, nil
}

func buildProbes(s *core.Study) ([]probe, error) {
	w := s.World
	from := s.GlobalPlatform.From
	cloudflare := s.Targets[0]

	// A fixed mix for geo: three scan-space addresses (almost all
	// unregistered, so the lookup walks every prefix) to one vantage hit.
	nodes := s.Global.Nodes()
	space := s.Scanner.Space
	addrs := make([]netip.Addr, 256)
	for i := range addrs {
		if i%4 == 3 {
			addrs[i] = nodes[i%len(nodes)].Addr
			continue
		}
		addrs[i] = space.Addr(uint64(i) * 2654435761 % space.Size)
	}

	query, err := dnswire.NewQuery(1, "probe."+core.ProbeZone, dnswire.TypeA).Pack()
	if err != nil {
		return nil, fmt.Errorf("packing probe query: %w", err)
	}

	dotClient := dot.NewClient(w, from, s.Roots, dot.Strict)
	conn, err := dotClient.Dial(cloudflare.DoT)
	if err != nil {
		return nil, fmt.Errorf("dialing DoT for the x509 chain: %w", err)
	}
	chain := conn.PeerCertificates()
	conn.Close()

	w.Geo.Register(netip.PrefixFrom(probeNode.Addr, 24), geo.Location{Country: probeNode.Country, ASN: probeNode.ASN, ASName: probeNode.ASName})
	s.Global.AddNode(probeNode)

	return []probe{
		{"geo_lookup", func(i int) error {
			if _, ok := w.Geo.Lookup(addrs[i%len(addrs)]); !ok && i%4 == 3 {
				return fmt.Errorf("vantage %v has no location", addrs[i%len(addrs)])
			}
			return nil
		}},
		{"netsim_dial", func(int) error {
			c, err := w.Dial(from, cloudflare.DNS, 53)
			if err != nil {
				return err
			}
			return c.Close()
		}},
		{"netsim_exchange", func(int) error {
			_, _, err := w.Exchange(from, cloudflare.DNS, 53, query)
			return err
		}},
		{"dot_handshake", func(int) error {
			c, err := dotClient.Dial(cloudflare.DoT)
			if err != nil {
				return err
			}
			return c.Close()
		}},
		{"x509_classify", func(int) error {
			if st := certs.Classify(chain, s.Roots); st != certs.StatusValid {
				return fmt.Errorf("cloudflare chain classified %v", st)
			}
			return nil
		}},
		{"proxy_dial", func(int) error {
			c, err := s.Global.Dial(from, probeNode.ID, cloudflare.DNS, 53)
			if err != nil {
				return err
			}
			return c.Close()
		}},
	}, nil
}

// measure runs op once to warm it, then repeatedly for at least budget,
// and returns nanoseconds and heap allocations per operation.
func measure(op func(i int) error, budget time.Duration) (nsPerOp, allocsPerOp float64, err error) {
	if err := op(0); err != nil {
		return 0, 0, err
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	n := 0
	for ; n < 64 || time.Since(start) < budget; n++ {
		if err := op(n); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(elapsed.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n), nil
}
