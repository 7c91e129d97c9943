package core

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/vantage"
	"dnsencryption.info/doe/internal/workload"
)

// This file is the million-vantage scale campaign (DESIGN.md §15): a
// deliberately minimal world — one authoritative zone, one public resolver,
// one generator-fed proxy platform — sized so the only thing that grows
// with the population is the campaign itself, and the campaign streams.
// Every per-query memory sink the study world tolerates is switched off
// here: the resolver cache is capped (safe because probe names are
// task-private), vantage geo comes from a model-backed fallback instead of
// a million registered prefixes, and nodes exist in the simulated world
// only while a worker holds them.

// ScaleConfig sizes a streaming scale campaign.
type ScaleConfig struct {
	// Seed drives the vantage model, the world and the platform RNGs; the
	// report is a pure function of (Seed, Nodes, targets).
	Seed int64
	// Nodes is the generated vantage population, at most
	// workload.VantageCapacity.
	Nodes int
	// Workers shards the campaign; any value yields a byte-identical
	// report.
	Workers int
	// AllProtos extends each vantage's sweep from clear-text DNS to the
	// full DNS/DoT/DoH/DoQ matrix (4x the lookups).
	AllProtos bool
	// CacheLimit caps the resolver's answer cache (entries). Zero keeps
	// the DefaultScaleConfig cap; campaigns never re-query a name, so the
	// cap cannot change any answer or latency.
	CacheLimit int
}

// DefaultScaleConfig is the 1M-vantage configuration the doebench memory
// gate runs.
func DefaultScaleConfig() ScaleConfig {
	return ScaleConfig{
		Seed:       20190501,
		Nodes:      1_000_000,
		Workers:    8,
		CacheLimit: 4096,
	}
}

// ValidateScaleNodes rejects population sizes the vantage generator cannot
// honor. Oversized requests are an error, never a silent truncation: a
// campaign that claims N vantages must measure N vantages.
func ValidateScaleNodes(n int) error {
	if n <= 0 {
		return fmt.Errorf("core: node count %d must be positive", n)
	}
	if n > workload.VantageCapacity {
		return fmt.Errorf("core: node count %d exceeds the vantage generator capacity %d (refusing to truncate)",
			n, workload.VantageCapacity)
	}
	return nil
}

// ScaleCampaign is an assembled scale world plus its generated population.
type ScaleCampaign struct {
	Config   ScaleConfig
	World    *netsim.World
	Model    *workload.VantageModel
	Network  *proxy.Network
	Platform *vantage.Platform
	Targets  []vantage.Target
	Zone     *dnsserver.Zone
	Resolver *dnsserver.Resolver
}

// NewScaleCampaign builds the minimal world: authoritative zone, one
// cloudflare-style resolver (with the DoT/DoH/DoQ front-ends when
// cfg.AllProtos), a generator-fed proxy network, and geo that answers
// vantage addresses from the model instead of a per-node registry.
func NewScaleCampaign(cfg ScaleConfig) (*ScaleCampaign, error) {
	if err := ValidateScaleNodes(cfg.Nodes); err != nil {
		return nil, err
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.CacheLimit <= 0 {
		cfg.CacheLimit = DefaultScaleConfig().CacheLimit
	}

	c := &ScaleCampaign{
		Config: cfg,
		World:  netsim.NewWorld(cfg.Seed),
		Model:  workload.NewVantageModel(cfg.Seed + 7),
	}

	// Geo: fixed infrastructure prefixes, model-backed vantage fallback.
	reg := func(prefix, cc string, asn int, name string) {
		c.World.Geo.Register(netip.MustParsePrefix(prefix),
			geo.Location{Country: cc, ASN: asn, ASName: name})
	}
	reg("1.1.1.0/24", "US", 13335, "Cloudflare, Inc.")
	reg("198.18.0.0/16", "US", 64500, "Study Infrastructure")
	reg("172.16.0.0/14", "US", 64501, "Study Clouds")
	model := c.Model
	c.World.Geo.SetFallback(func(a netip.Addr) (geo.Location, bool) {
		if i, ok := model.IndexOf(a); ok {
			return model.Location(i), true
		}
		return geo.Location{}, false
	})

	c.Zone = dnsserver.NewZone(ProbeZone)
	c.Zone.WildcardA = netip.MustParseAddr("198.18.0.80")
	c.World.RegisterDatagram(authServerAddr, 53, dnsserver.DatagramHandler(c.Zone))

	// One public resolver with a capped cache. Probe names are unique per
	// lookup (Platform.UniqueName), so no insertion after the cap fills
	// could ever have produced a hit — answers and latencies are
	// unchanged, heap stays O(CacheLimit).
	c.Resolver = dnsserver.NewResolver(c.World, cloudflareDNS,
		map[string]netip.Addr{ProbeZone: authServerAddr})
	c.Resolver.CacheLimit = cfg.CacheLimit
	dnsserver.Serve(c.World, cloudflareDNS, c.Resolver)

	c.Targets = []vantage.Target{{Name: "cloudflare", DNS: cloudflareDNS}}

	c.Network = proxy.NewNetwork(c.World, "genrack", globalSuper)
	c.Network.PerDialCost = 10 * time.Second
	c.Network.SetGenerator(cfg.Nodes, model.Node)

	// Afflictions: a hash-derived slice of the population sits behind
	// port-53 filtering middleboxes (the Finding 2.1 shape). Membership is
	// a pure function of the vantage index, so the verdict a node sees is
	// independent of scheduling.
	c.World.AddPolicy(netsim.PolicyFunc(
		func(w *netsim.World, from, to netip.Addr, port uint16, proto netsim.Proto) netsim.Verdict {
			if port != 53 || to != cloudflareDNS {
				return netsim.Verdict{}
			}
			if i, ok := model.IndexOf(from); ok && model.Filtered(i) {
				return netsim.Verdict{Action: netsim.ActBlackhole}
			}
			return netsim.Verdict{}
		}))

	c.Platform = &vantage.Platform{
		Network:   c.Network,
		From:      measureClient,
		ProbeZone: ProbeZone,
		ExpectedA: c.Zone.WildcardA,
		MinUptime: 3 * time.Minute,
	}

	if cfg.AllProtos {
		if err := c.buildEncryptedFrontends(&c.Targets[0]); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// buildEncryptedFrontends adds DoT/DoH/DoQ service on the resolver and
// extends the target matrix accordingly.
func (c *ScaleCampaign) buildEncryptedFrontends(target *vantage.Target) error {
	ca, err := certs.NewCA("DoE Scale Root CA", true)
	if err != nil {
		return err
	}
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: "cloudflare-dns.com",
		IPs:        []netip.Addr{cloudflareDNS},
	})
	if err != nil {
		return err
	}
	dot.Serve(c.World, cloudflareDNS, leaf, c.Resolver, time.Millisecond)
	doq.Serve(c.World, cloudflareDNS, leaf, c.Resolver, time.Millisecond)
	doh.Serve(c.World, cloudflareDNS, leaf, &doh.Server{Handler: c.Resolver})
	c.Platform.Roots = certs.Pool(ca)
	target.DoT = cloudflareDNS
	target.DoHAddr = cloudflareDNS
	target.DoH = doh.Template{Host: "cloudflare-dns.com", Path: doh.DefaultPath}
	target.DoQ = cloudflareDNS
	return nil
}

// Run executes the streaming campaign over the generated population and
// returns its accumulator. Memory is O(Workers + CacheLimit + cells), never
// O(Nodes).
func (c *ScaleCampaign) Run(ctx context.Context) (*vantage.CampaignStats, error) {
	return c.Platform.CampaignStreamSource(ctx,
		vantage.GeneratorSource(c.Network), c.Targets, c.Config.Workers,
		vantage.CampaignOpts{})
}

// Report renders the campaign header and summary — byte-identical for any
// Workers value.
func (c *ScaleCampaign) Report(stats *vantage.CampaignStats) string {
	protos := "DNS"
	if c.Config.AllProtos {
		protos = "DNS/DoT/DoH/DoQ"
	}
	return fmt.Sprintf("== scale campaign: %d vantages, %s, seed %d ==\n\n%s",
		c.Config.Nodes, protos, c.Config.Seed, stats.Render())
}

// Close tears the world down.
func (c *ScaleCampaign) Close() { c.Network.Shutdown() }
