package core

import (
	"crypto/ed25519"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/faults"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/scanner"
	"dnsencryption.info/doe/internal/vantage"
)

// Well-known addresses of the study.
var (
	cloudflareDNS  = netip.MustParseAddr("1.1.1.1")
	cloudflareDoH  = netip.MustParseAddr("104.16.249.249")
	googleDNS      = netip.MustParseAddr("8.8.8.8")
	googleDoH      = netip.MustParseAddr("216.58.192.10")
	quad9Addr      = netip.MustParseAddr("9.9.9.9")
	quad9Backend   = netip.MustParseAddr("9.9.9.10")
	selfBuiltAddr  = netip.MustParseAddr("198.18.0.53")
	authServerAddr = netip.MustParseAddr("198.18.0.1")
	measureClient  = netip.MustParseAddr("172.16.0.9")
	globalSuper    = netip.MustParseAddr("172.16.1.1")
	censoredSuper  = netip.MustParseAddr("172.16.2.1")
	scanSpaceBase  = netip.MustParseAddr("100.64.0.0")
)

// scanSources are the paper's three scan origins (cloud hosts in the US
// and China).
var scanSources = []netip.Addr{
	netip.MustParseAddr("172.16.3.1"), // US cloud
	netip.MustParseAddr("172.16.3.2"), // US cloud
	netip.MustParseAddr("172.16.4.1"), // CN cloud
}

// ProbeZone is the measurement domain registered by the study.
const ProbeZone = "probe.dnsencryption.info"

// resolverSlot is one DoT resolver address of the scanned population, with
// its activity window across scan rounds.
type resolverSlot struct {
	addr     netip.Addr
	country  string
	provider providerSpec
	leaf     *certs.Leaf
	// activeFrom/activeTo are inclusive round indexes.
	activeFrom, activeTo int
	registered           bool
}

// certKind labels the certificate population of Finding 1.2.
type certKind int

const (
	certValid certKind = iota
	certExpired
	certSelfSigned
	certFortiGate
	certBadChain
)

// providerSpec describes one DoT provider of the scanned population.
type providerSpec struct {
	// cn is the certificate Common Name (provider grouping key follows
	// from it).
	cn   string
	kind certKind
}

// Study is the assembled end-to-end measurement.
type Study struct {
	Config
	World  *netsim.World
	RootCA *certs.CA
	Roots  *certs.TrustStore

	// Progress, when set, receives per-experiment wall-clock timing from
	// RunExperiment (stderr logging in cmd/doereport); it never feeds the
	// report.
	Progress Progress

	// Zone is the authoritative measurement zone; ExpectedA its wildcard
	// answer.
	Zone      *dnsserver.Zone
	ExpectedA netip.Addr

	// Scanner is the §3 discovery scanner; scan rounds are labeled
	// "2019-02-01" .. "2019-05-01".
	Scanner    *scanner.Scanner
	ScanLabels []string
	slots      []*resolverSlot
	curRound   int

	// DoH discovery inputs.
	DoHKnownList []string
	DoHCorpus    []string
	DoHResolve   map[string]netip.Addr

	// Client-side platforms.
	Global           *proxy.Network
	Censored         *proxy.Network
	GlobalPlatform   *vantage.Platform
	CensoredPlatform *vantage.Platform
	Targets          []vantage.Target
	Interceptors     []*netsim.TLSInterceptor

	// DoTResolvers is the ground-truth provider map for §5's NetFlow
	// analysis (well-known addresses).
	DoTResolvers map[netip.Addr]string

	// DNSCrypt deployment (OpenDNS-style, §2.2/Table 8): provider name,
	// pinned Ed25519 key and resolver address.
	DNSCryptProvider string
	DNSCryptPK       ed25519.PublicKey
	DNSCryptAddr     netip.Addr

	// LocalResolvers maps each vantage /24 to its ISP's local resolver
	// (the RIPE-Atlas-style probe target of §3.1's limitation note);
	// LocalDoTCapable lists the few that accept DoT.
	LocalResolvers  map[netip.Prefix]netip.Addr
	LocalDoTCapable map[netip.Addr]bool

	// Faults is the installed fault injector, nil when Config.Faults is
	// disabled. Its counters feed the end-of-report recovery summary.
	Faults *faults.Injector

	// Obs is the study-wide trace recorder and metric registry, nil when
	// Config.Telemetry is off. Every pipeline stage hangs its spans off
	// Obs.Root(); see internal/obs and the telemetry contract in DESIGN.md.
	Obs *obs.Recorder

	expMu   sync.Mutex
	expSpan *obs.Span

	rngMu sync.Mutex
	rng   *rand.Rand

	// Cached pipeline outputs (each stage runs once per study).
	scansOnce   sync.Once
	scanResults []*scanner.Result
	scanErr     error
	reachOnce   sync.Once
	reach       *ReachabilityData
	perfOnce    sync.Once
	perfSamples []vantage.PerfSample
	trafficOnce sync.Once
	traffic     *TrafficData
	dohOnce     sync.Once
	dohFound    []scanner.DoHResolver
}

func (s *Study) randIntn(n int) int {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Intn(n)
}

func (s *Study) randFloat() float64 {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return s.rng.Float64()
}

// NewStudy builds the calibrated world and all measurement apparatus.
func NewStudy(cfg Config) (*Study, error) {
	s := &Study{
		Config: cfg,
		World:  netsim.NewWorld(cfg.Seed),
		rng:    rand.New(rand.NewSource(cfg.Seed + 1)),
	}
	if cfg.Telemetry {
		s.Obs = obs.NewRecorder("study")
	}
	rootCA, err := certs.NewCA("DoE Study Root CA", true)
	if err != nil {
		return nil, err
	}
	s.RootCA = rootCA
	s.Roots = certs.Pool(rootCA)

	s.registerInfrastructureGeo()
	for _, build := range []func() error{
		s.buildAuthoritative, s.buildPublicResolvers, s.buildScanPopulation, s.buildDoHWorld,
		s.buildClientNetworks, s.buildDNSCrypt, s.buildLocalResolvers, s.buildFaults,
	} {
		if err := build(); err != nil {
			s.Close()
			return nil, err
		}
	}
	s.buildScanner()
	s.SetScanRound(0)
	return s, nil
}

// Close shuts the study's world down (netsim.World.Close). Every service
// the world runs holds a goroutine that keeps the study reachable, so a
// study dropped without Close is never collected. Run no experiment on a
// closed study. Close is idempotent.
func (s *Study) Close() { s.World.Close() }

func (s *Study) registerInfrastructureGeo() {
	reg := func(prefix, cc string, asn int, name string) {
		s.World.Geo.Register(netip.MustParsePrefix(prefix),
			geo.Location{Country: cc, ASN: asn, ASName: name})
	}
	reg("1.1.1.0/24", "US", 13335, "Cloudflare, Inc.")
	reg("104.16.0.0/12", "US", 13335, "Cloudflare, Inc.")
	reg("8.8.8.0/24", "US", 15169, "Google LLC")
	reg("216.58.192.0/24", "US", 15169, "Google LLC")
	reg("9.9.9.0/24", "US", 19281, "Quad9")
	reg("198.18.0.0/16", "US", 64500, "Study Infrastructure")
	reg("172.16.0.0/14", "US", 64501, "Study Clouds")
	reg("172.16.4.0/24", "CN", 64502, "Study Cloud CN")
	// Controlled vantages for the no-reuse performance test (Table 7).
	reg("172.20.1.0/24", "US", 64510, "Controlled Vantage US")
	reg("172.20.2.0/24", "NL", 64511, "Controlled Vantage NL")
	reg("172.20.3.0/24", "AU", 64512, "Controlled Vantage AU")
	reg("172.20.4.0/24", "HK", 64513, "Controlled Vantage HK")
}

// ControlledVantages are the Table 7 measurement machines.
var ControlledVantages = []struct {
	Label string
	Addr  netip.Addr
}{
	{"US", netip.MustParseAddr("172.20.1.1")},
	{"NL", netip.MustParseAddr("172.20.2.1")},
	{"AU", netip.MustParseAddr("172.20.3.1")},
	{"HK", netip.MustParseAddr("172.20.4.1")},
}

// buildAuthoritative installs the measurement zone's nameserver.
func (s *Study) buildAuthoritative() error {
	s.ExpectedA = netip.MustParseAddr("198.18.0.80")
	s.Zone = dnsserver.NewZone(ProbeZone)
	s.Zone.WildcardA = s.ExpectedA
	// The scanner's ethics fixture: reverse-DNS record and opt-out page.
	s.Zone.Add("scanner."+ProbeZone, 3600,
		dnswire.TXT{Texts: []string{"research scanner; opt-out: https://" + ProbeZone}})
	dnsserver.Serve(s.World, authServerAddr, s.Zone)
	return nil
}

// resolverFor builds a caching recursive resolver forwarding the
// measurement zone to the authoritative server.
func (s *Study) resolverFor(addr netip.Addr, seed int64) *dnsserver.Resolver {
	return dnsserver.NewResolver(s.World, addr,
		map[string]netip.Addr{ProbeZone: authServerAddr}, seed)
}

// latencyShaper adds per-country path penalties at a resolver — the route
// and PoP asymmetries behind Fig. 9's per-country differences (Indonesian
// clients see slower encrypted paths; Indian clients see a congested
// clear-text path, making DoH *faster* than clear DNS).
type latencyShaper struct {
	inner   dnsserver.Handler
	world   *netsim.World
	penalty map[string]time.Duration
}

// ServeDNS implements dnsserver.Handler.
func (l *latencyShaper) ServeDNS(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	resp, proc := l.inner.ServeDNS(remote, req)
	if extra, ok := l.penalty[l.world.Geo.Country(remote)]; ok {
		proc += extra
	}
	return resp, proc
}

// Per-country path penalties, milliseconds (see Fig. 9 discussion).
var (
	clearTextPenalty = map[string]time.Duration{
		"IN": 90 * time.Millisecond, // congested clear-DNS route
		"VN": 25 * time.Millisecond,
	}
	encryptedPenalty = map[string]time.Duration{
		"ID": 22 * time.Millisecond, // slow encrypted paths
		"BR": 8 * time.Millisecond,
	}
)

// buildPublicResolvers deploys Cloudflare, Google, Quad9 and the
// self-built resolver.
func (s *Study) buildPublicResolvers() error {
	issue := func(cn string, ips ...netip.Addr) (*certs.Leaf, error) {
		return s.RootCA.Issue(certs.LeafOptions{CommonName: cn, IPs: ips})
	}

	// Cloudflare: clear-text DNS + DoT on 1.1.1.1, DoH on
	// mozilla.cloudflare-dns.com.
	cfResolver := s.resolverFor(cloudflareDNS, s.Seed+101)
	cfClear := &latencyShaper{inner: cfResolver, world: s.World, penalty: clearTextPenalty}
	cfEnc := &latencyShaper{inner: cfResolver, world: s.World, penalty: encryptedPenalty}
	dnsserver.Serve(s.World, cloudflareDNS, cfClear)
	cfLeaf, err := issue("cloudflare-dns.com", cloudflareDNS)
	if err != nil {
		return err
	}
	dot.Serve(s.World, cloudflareDNS, cfLeaf, cfEnc, time.Millisecond)
	doq.Serve(s.World, cloudflareDNS, cfLeaf, cfEnc, time.Millisecond)
	cfDoHLeaf, err := issue("mozilla.cloudflare-dns.com", cloudflareDoH)
	if err != nil {
		return err
	}
	doh.Serve(s.World, cloudflareDoH, cfDoHLeaf, &doh.Server{Handler: cfEnc})
	// Cloudflare serves a landing page on 1.1.1.1's ports 80/443, what a
	// port probe that reaches the genuine resolver finds there.
	s.World.RegisterStream(cloudflareDNS, 80, netsim.StaticPage("Cloudflare", "<title>1.1.1.1 — the free app that makes your Internet faster.</title>"))
	s.World.RegisterStream(cloudflareDNS, 443, netsim.StaticPage("Cloudflare", "<title>1.1.1.1</title>"))

	// Google: clear-text on 8.8.8.8, DoH on dns.google. No DoT at the
	// time of the experiment ("Google DoT was not announced").
	gResolver := s.resolverFor(googleDNS, s.Seed+102)
	gClear := &latencyShaper{inner: gResolver, world: s.World, penalty: clearTextPenalty}
	gEnc := &latencyShaper{inner: gResolver, world: s.World, penalty: encryptedPenalty}
	dnsserver.Serve(s.World, googleDNS, gClear)
	gLeaf, err := issue("dns.google", googleDoH)
	if err != nil {
		return err
	}
	doh.Serve(s.World, googleDoH, gLeaf, &doh.Server{
		Handler: gEnc,
		Paths:   []string{doh.DefaultPath, doh.JSONPath},
	})

	// Quad9: all three protocols on 9.9.9.9; the DoH front-end forwards
	// to its own UDP backend with a 2-second timeout (Finding 2.4).
	q9Resolver := s.resolverFor(quad9Backend, s.Seed+103)
	s.World.RegisterDatagram(quad9Backend, 53, dnsserver.DatagramHandler(q9Resolver))
	q9Front := s.resolverFor(quad9Addr, s.Seed+104)
	q9Clear := &latencyShaper{inner: q9Front, world: s.World, penalty: clearTextPenalty}
	q9Enc := &latencyShaper{inner: q9Front, world: s.World, penalty: encryptedPenalty}
	dnsserver.Serve(s.World, quad9Addr, q9Clear)
	q9Leaf, err := issue("dns.quad9.net", quad9Addr)
	if err != nil {
		return err
	}
	dot.Serve(s.World, quad9Addr, q9Leaf, q9Enc, time.Millisecond)
	doq.Serve(s.World, quad9Addr, q9Leaf, q9Enc, time.Millisecond)
	// Backend latency draws are keyed by the querying exit node, not by a
	// single shared stream: with one RNG, the value each client observed
	// would depend on the global order of arrival, and parallel campaigns
	// would reshuffle it. A per-remote RNG (seeded from the study seed and
	// the client address) makes each vantage point's draw sequence a
	// property of that vantage point alone.
	var q9mu sync.Mutex
	q9rngs := make(map[netip.Addr]*rand.Rand)
	q9rngFor := func(remote netip.Addr) *rand.Rand {
		if r, ok := q9rngs[remote]; ok {
			return r
		}
		h := fnv.New64a()
		b, _ := remote.MarshalBinary()
		h.Write(b)
		r := rand.New(netsim.NewSource(s.Seed + 105 + int64(h.Sum64()>>1)))
		q9rngs[remote] = r
		return r
	}
	doh.Serve(s.World, quad9Addr, q9Leaf, &doh.Server{
		Handler: &doh.UDPBackendForwarder{
			World:   s.World,
			From:    quad9Addr,
			Backend: quad9Backend,
			Timeout: 2 * time.Second,
			ExtraBackendLatency: func(remote netip.Addr) time.Duration {
				// Faraway clients land on busier paths and colder
				// caches; the censored platform's domestic PoP
				// rarely trips the 2 s timeout.
				p := 0.13
				if s.World.Geo.Country(remote) == "CN" {
					p = 0.005
				}
				q9mu.Lock()
				defer q9mu.Unlock()
				rng := q9rngFor(remote)
				if rng.Float64() < p {
					return 2500 * time.Millisecond
				}
				return time.Duration(rng.Intn(200)) * time.Millisecond
			},
		},
	})

	// Self-built resolver: authoritative-backed, all three protocols.
	sb := s.resolverFor(selfBuiltAddr, s.Seed+106)
	dnsserver.Serve(s.World, selfBuiltAddr, sb)
	sbLeaf, err := issue("self-built."+ProbeZone, selfBuiltAddr)
	if err != nil {
		return err
	}
	dot.Serve(s.World, selfBuiltAddr, sbLeaf, sb, time.Millisecond)
	doh.Serve(s.World, selfBuiltAddr, sbLeaf, &doh.Server{Handler: sb})
	doq.Serve(s.World, selfBuiltAddr, sbLeaf, sb, time.Millisecond)

	s.DoTResolvers = map[netip.Addr]string{
		cloudflareDNS: "cloudflare",
		quad9Addr:     "quad9",
	}

	s.Targets = []vantage.Target{
		{
			Name:    "cloudflare",
			DNS:     cloudflareDNS,
			DoT:     cloudflareDNS,
			DoH:     doh.Template{Host: "mozilla.cloudflare-dns.com", Path: doh.DefaultPath},
			DoHAddr: cloudflareDoH,
			DoQ:     cloudflareDNS,
		},
		{
			Name: "google",
			DNS:  googleDNS,
			// DoT and DoQ invalid: not announced at experiment time.
			DoH:     doh.Template{Host: "dns.google", Path: doh.DefaultPath},
			DoHAddr: googleDoH,
		},
		{
			Name:    "quad9",
			DNS:     quad9Addr,
			DoT:     quad9Addr,
			DoH:     doh.Template{Host: "dns.quad9.net", Path: doh.DefaultPath},
			DoHAddr: quad9Addr,
			DoQ:     quad9Addr,
		},
		{
			Name:    "self-built",
			DNS:     selfBuiltAddr,
			DoT:     selfBuiltAddr,
			DoH:     doh.Template{Host: "self-built." + ProbeZone, Path: doh.DefaultPath},
			DoHAddr: selfBuiltAddr,
			DoQ:     selfBuiltAddr,
		},
	}
	return nil
}
