package core

import (
	"fmt"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/analysis"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnscrypt"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/runner"
)

// opendnsAddr hosts the study's DNSCrypt deployment (OpenDNS has offered
// DNSCrypt since 2011, §2.2).
var opendnsAddr = netip.MustParseAddr("208.67.222.222")

// buildDNSCrypt deploys the OpenDNS-style DNSCrypt resolver backing
// Table 1's fifth column with a working implementation.
func (s *Study) buildDNSCrypt() error {
	s.World.Geo.Register(netip.MustParsePrefix("208.67.222.0/24"),
		geo.Location{Country: "US", ASN: 36692, ASName: "OpenDNS, LLC"})
	resolver := s.resolverFor(opendnsAddr)
	srv, providerPK, err := dnscrypt.NewServer("opendns."+ProbeZone, resolver)
	if err != nil {
		return err
	}
	s.World.RegisterDatagram(opendnsAddr, dnscrypt.Port, srv.DatagramHandler())
	s.DNSCryptProvider = "opendns." + ProbeZone
	s.DNSCryptPK = providerPK
	s.DNSCryptAddr = opendnsAddr
	return nil
}

// buildLocalResolvers gives every global vantage /24 an ISP local resolver
// on its .53 address (clear-text only); a handful additionally accept DoT,
// reproducing §3.1's RIPE-Atlas finding that "only 24 of 6,655 probes
// (0.3%) succeed" at DoT against local resolvers.
func (s *Study) buildLocalResolvers() error {
	s.LocalResolvers = make(map[netip.Prefix]netip.Addr)
	s.LocalDoTCapable = make(map[netip.Addr]bool)
	nodes := s.Global.Nodes()
	for i, node := range nodes {
		b := node.Addr.As4()
		b[3] = 53
		lr := netip.AddrFrom4(b)
		prefix := netip.PrefixFrom(netip.AddrFrom4([4]byte{b[0], b[1], b[2], 0}), 24)
		s.LocalResolvers[prefix] = lr

		resolver := s.resolverFor(lr)
		s.World.RegisterDatagram(lr, 53, dnsserver.DatagramHandler(resolver))
		// Roughly 1 in 200 ISP resolvers speaks DoT (at miniature
		// scale, guarantee one so the experiment has a witness).
		if i%200 == 100 || (len(nodes) < 200 && i == 37) {
			leaf, err := s.RootCA.Issue(certs.LeafOptions{
				CommonName: "local-resolver-" + lr.String(),
				IPs:        []netip.Addr{lr},
			})
			if err != nil {
				return err
			}
			dot.Serve(s.World, lr, leaf, resolver, time.Millisecond)
			s.LocalDoTCapable[lr] = true
		}
	}
	return nil
}

// runDNSCrypt exercises the DNSCrypt deployment end to end: certificate
// bootstrap over clear-text TXT, Ed25519 verification, then encrypted
// queries under X25519-XSalsa20Poly1305.
func runDNSCrypt(s *Study) (string, error) {
	ctx := s.obsCtx()
	client, err := dnscrypt.NewClient(s.World, ControlledVantages[0].Addr, s.DNSCryptProvider, s.DNSCryptPK)
	if err != nil {
		return "", err
	}
	// The DNSCrypt client has no Transport underneath it, so under fault
	// injection the attempt budget is applied here, around the certificate
	// bootstrap and each encrypted exchange.
	budget := s.retryBudget()
	if err := retrying(budget, func() error {
		return client.FetchCertContext(ctx, s.DNSCryptAddr)
	}); err != nil {
		return "", fmt.Errorf("certificate bootstrap: %w", err)
	}
	ex := resolver.DNSCrypt(client, s.DNSCryptAddr)
	var lat []float64
	for i := 0; i < 10; i++ {
		q := dnswire.NewQuery(0, fmt.Sprintf("dc-%d.%s", i, ProbeZone), dnswire.TypeA)
		var m *dnswire.Message
		err := retrying(budget, func() error {
			var exErr error
			m, exErr = ex.Exchange(ctx, q)
			return exErr
		})
		if err != nil {
			return "", err
		}
		if a, ok := m.FirstA(); !ok || a != s.ExpectedA {
			return "", fmt.Errorf("wrong answer: %v", m.Answers)
		}
		lat = append(lat, float64(ex.LastLatency())/float64(time.Millisecond))
	}
	var b analysis.Table
	b.Title = "DNSCrypt deployment check (Table 1's fifth protocol, working end to end)"
	b.Columns = []string{"Property", "Value"}
	b.AddRow("provider", s.DNSCryptProvider)
	b.AddRow("resolver", s.DNSCryptAddr)
	b.AddRow("construction", "X25519-XSalsa20Poly1305 (es-version 1)")
	b.AddRow("cert bootstrap", "TXT 2.dnscrypt-cert.<provider>, Ed25519-verified")
	b.AddRow("queries", len(lat))
	b.AddRow("median latency (ms)", fmt.Sprintf("%.1f", analysis.Median(lat)))
	return b.Render(), nil
}

// runLocalDoT reproduces the §3.1 limitation check: DoT probes against the
// vantage points' own ISP resolvers, RIPE-Atlas style.
func runLocalDoT(s *Study) (string, error) {
	nodes := s.Global.Nodes()
	// One probe per vantage point, fanned out; successes fold in node
	// order so the counters and the example list stay deterministic.
	type localProbe struct {
		example string
		ok      bool
	}
	results := runner.Map(s.Workers, len(nodes), func(i int) localProbe {
		node := nodes[i]
		b := node.Addr.As4()
		b[3] = 53
		lr := netip.AddrFrom4(b)
		// The resolver's default Opportunistic profile: a local resolver
		// with any certificate counts as DoT-capable.
		exit := proxy.ExitDialer{Network: s.Global, From: s.GlobalPlatform.From, NodeID: node.ID}
		ctx := s.obsCtx()
		sess, err := resolver.NewVia(exit, s.Roots).Dial(ctx, resolver.ProtoDoT, resolver.Endpoint{Addr: lr})
		if err != nil {
			return localProbe{}
		}
		q := dnswire.NewQuery(0, s.GlobalPlatform.UniqueName(node.ID+"-local"), dnswire.TypeA)
		m, err := sess.Exchange(ctx, q)
		sess.Close()
		if err != nil || m.Rcode != dnswire.RcodeSuccess {
			return localProbe{}
		}
		return localProbe{
			example: fmt.Sprintf("%s (AS%d %s)", lr, node.ASN, node.ASName),
			ok:      true,
		}
	})
	probed, succeeded := len(nodes), 0
	var capable []string
	for _, r := range results {
		if !r.ok {
			continue
		}
		succeeded++
		if len(capable) < 5 {
			capable = append(capable, r.example)
		}
	}
	out := "Local (ISP) resolver DoT deployment, RIPE-Atlas-style probes (§3.1)\n"
	out += fmt.Sprintf("probes: %d, DoT-capable local resolvers: %d (%.1f%%)\n",
		probed, succeeded, 100*float64(succeeded)/float64(max(1, probed)))
	out += fmt.Sprintf("paper: 24 of 6,655 probes (0.3%%) succeeded\n")
	for _, c := range capable {
		out += "  example: " + c + "\n"
	}
	return out, nil
}
