package core

import (
	"fmt"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/vantage"
	"dnsencryption.info/doe/internal/workload"
)

// dohPublicHosts are the 15 DoH services on the public curated list at the
// time of the study, plus (last two) services absent from it that the URL
// corpus reveals (§3.2 found dns.233py.com and one more beyond the list).
var dohPublicHosts = []struct {
	host  string
	path  string
	known bool
}{
	{"mozilla.cloudflare-dns.com", "/dns-query", true},
	{"dns.google", "/resolve", true},
	{"dns.quad9.net", "/dns-query", true},
	{"doh.cleanbrowsing.org", "/dns-query", true},
	{"doh.crypto.sx", "/dns-query", true},
	{"doh.securedns.eu", "/dns-query", true},
	{"doh.blahdns.com", "/dns-query", true},
	{"dns.dnsoverhttps.net", "/dns-query", true},
	{"doh.li", "/dns-query", true},
	{"dns.dns-over-https.com", "/dns-query", true},
	{"commons.host", "/dns-query", true},
	{"doh.dns.sb", "/dns-query", true},
	{"dns.rubyfish.cn", "/dns-query", true},
	{"doh.netweaver.uk", "/dns-query", true},
	{"jp.tiar.app", "/dns-query", true},
	{"dns.233py.com", "/dns-query", false},
	{"dns.beyondlist.example", "/dns-query", false},
}

// buildDoHWorld deploys the public DoH population and synthesizes the URL
// corpus the discovery inspects.
func (s *Study) buildDoHWorld() error {
	s.DoHResolve = make(map[string]netip.Addr)
	base := netip.MustParseAddr("104.16.1.1").As4()
	for i, spec := range dohPublicHosts {
		var addr netip.Addr
		switch spec.host {
		case "mozilla.cloudflare-dns.com":
			addr = cloudflareDoH
		case "dns.google":
			addr = googleDoH
		case "dns.quad9.net":
			addr = quad9Addr
		default:
			b := base
			b[2] += byte(i)
			addr = netip.AddrFrom4(b)
			leaf, err := s.RootCA.Issue(certs.LeafOptions{CommonName: spec.host, IPs: []netip.Addr{addr}})
			if err != nil {
				return err
			}
			doh.Serve(s.World, addr, leaf, &doh.Server{Handler: s.Zone, Paths: []string{spec.path}})
		}
		s.DoHResolve[spec.host] = addr
		if spec.known {
			s.DoHKnownList = append(s.DoHKnownList,
				fmt.Sprintf("https://%s%s{?dns}", spec.host, spec.path))
		}
	}

	// URL corpus: the DoH endpoints (with known templates), one service
	// on an unknown path (missed, the documented limitation), and noise.
	var corpus []string
	for _, spec := range dohPublicHosts {
		corpus = append(corpus, "https://"+spec.host+spec.path)
	}
	corpus = append(corpus, "https://hidden-doh.example/private-endpoint")
	for i := 0; i < s.CorpusNoise; i++ {
		corpus = append(corpus, fmt.Sprintf("https://site-%d.example/page/%d", i%4096, i))
	}
	s.DoHCorpus = corpus
	return nil
}

// The ProxyRack-style country distribution lives in workload.VantageMix:
// the materialized pool here and the generator-fed scale population draw
// from the same Table 3 weights.

// dpiCANames are the untrusted issuer CNs Table 6 observes on intercepted
// sessions.
var dpiCANames = []string{
	"SonicWall Firewall DPI-SSL",
	"None",
	"Sample CA 2",
	"NThmYzgyYT",
	"c41618c762bf890f",
}

// buildClientNetworks creates the two proxy platforms, their exit nodes and
// the middleboxes afflicting parts of the client population.
func (s *Study) buildClientNetworks() error {
	s.Global = proxy.NewNetwork(s.World, "proxyrack", globalSuper)
	s.Censored = proxy.NewNetwork(s.World, "zhima", censoredSuper)
	// One tunneled session costs little lifetime; vantage sessions are
	// short but numerous.
	s.Global.PerDialCost = 10 * time.Second
	s.Censored.PerDialCost = 10 * time.Second

	// Weighted country sequence for global nodes.
	var countrySeq []string
	for _, w := range workload.VantageMix() {
		for i := 0; i < w.Weight; i++ {
			countrySeq = append(countrySeq, w.CC)
		}
	}

	var (
		conflictPrefixes   []netip.Prefix // global 1.1.1.1 conflicts
		conflictPrefixesCN []netip.Prefix
		filteredPrefixes   []netip.Prefix
		interceptedIdx     int
	)
	seAsia := map[string]bool{"ID": true, "IN": true, "VN": true}
	// TLS-inspection middleboxes sit at fixed node indices so the count
	// scales with the pool (the paper saw 17 of 29,622 clients; scaled
	// populations need at least one for Table 6 to materialize).
	interceptAt := map[int]bool{37: true, 211: true, 397: true, 499: true, 557: true}

	for i := 0; i < s.GlobalNodes; i++ {
		cc := countrySeq[s.randIntn(len(countrySeq))]
		prefix := netip.MustParsePrefix(fmt.Sprintf("10.%d.%d.0/24", i/256, i%256))
		addr := prefix.Addr().Next() // .1
		asn := 30000 + i%500
		asName := workload.ResidentialASName(cc, asn)
		s.World.Geo.Register(prefix, geo.Location{Country: cc, ASN: asn, ASName: asName})
		s.Global.AddNode(proxy.ExitNode{
			ID:       fmt.Sprintf("g-%04d-%s", i, cc),
			Addr:     addr,
			Country:  cc,
			ASN:      asn,
			ASName:   asName,
			Lifetime: time.Duration(10+s.randIntn(110)) * time.Minute,
		})

		// Afflictions.
		if interceptAt[i] && interceptedIdx < len(dpiCANames) {
			ca, err := certs.NewCA(dpiCANames[interceptedIdx], false)
			if err != nil {
				return err
			}
			ports := []uint16{dot.Port, doh.Port}
			if interceptedIdx == len(dpiCANames)-1 {
				ports = []uint16{doh.Port} // the 443-only devices of Table 6
			}
			box := netsim.NewTLSInterceptor(ca, ports...)
			s.World.AddPolicy(box, prefix)
			s.Interceptors = append(s.Interceptors, box)
			interceptedIdx++
			continue
		}
		r := s.randFloat()
		filterProb := 0.06
		if seAsia[cc] {
			filterProb = 0.5
		}
		switch {
		case r < 0.011:
			conflictPrefixes = append(conflictPrefixes, prefix)
		case r < 0.011+filterProb:
			filteredPrefixes = append(filteredPrefixes, prefix)
		}
	}

	// Censored platform: CN-only, 5 ASes of two ISPs.
	cnASNs := []struct {
		asn  int
		name string
	}{
		{4134, "Chinanet"}, {4837, "China Unicom"}, {4808, "China Unicom Beijing"},
		{17622, "China Unicom Guangzhou"}, {17816, "China Unicom IP network"},
	}
	for i := 0; i < s.CensoredNodes; i++ {
		prefix := netip.MustParsePrefix(fmt.Sprintf("11.%d.%d.0/24", i/256, i%256))
		addr := prefix.Addr().Next()
		as := cnASNs[i%len(cnASNs)]
		s.World.Geo.Register(prefix, geo.Location{Country: "CN", ASN: as.asn, ASName: as.name})
		s.Censored.AddNode(proxy.ExitNode{
			ID:       fmt.Sprintf("z-%04d", i),
			Addr:     addr,
			Country:  "CN",
			ASN:      as.asn,
			ASName:   as.name,
			Lifetime: time.Duration(10+s.randIntn(110)) * time.Minute,
		})
		if s.randFloat() < 0.15 {
			conflictPrefixesCN = append(conflictPrefixesCN, prefix)
		}
	}

	// 1.1.1.1 conflict devices: most silent, some identifiable.
	s.installConflictDevices(conflictPrefixes)
	s.installConflictDevices(conflictPrefixesCN)

	// Port-53 filtering middleboxes target the most prominent resolver
	// addresses only (Finding 2.1: Quad9's clear-text DNS is far less
	// affected than Cloudflare's and Google's). With no prefixes the filter
	// would sit on every path.
	if len(filteredPrefixes) > 0 {
		s.World.AddPolicy(&netsim.PortFilter{
			Port:      53,
			DstIPs:    map[netip.Addr]bool{cloudflareDNS: true, googleDNS: true},
			Blackhole: true,
		}, filteredPrefixes...)
	}

	// National censorship: Google DoH addresses carry other Google
	// services and are blocked wholesale for CN clients (Finding 2.2).
	s.World.AddPolicy(&netsim.Censor{
		Countries: map[string]bool{"CN": true},
		BlockIPs:  map[netip.Addr]bool{googleDoH: true},
		Blackhole: true,
	})

	s.GlobalPlatform = &vantage.Platform{
		Network:     s.Global,
		From:        measureClient,
		Roots:       s.Roots,
		ProbeZone:   ProbeZone,
		ExpectedA:   s.ExpectedA,
		MinUptime:   3 * time.Minute,
		MuxInFlight: s.MuxInFlight,
	}
	s.CensoredPlatform = &vantage.Platform{
		Network:     s.Censored,
		From:        measureClient,
		Roots:       s.Roots,
		ProbeZone:   ProbeZone,
		ExpectedA:   s.ExpectedA,
		MinUptime:   3 * time.Minute,
		MuxInFlight: s.MuxInFlight,
	}
	return nil
}

// installConflictDevices splits conflicted prefixes among the device
// personalities Table 5 and the Finding 2.1 forensics identify.
func (s *Study) installConflictDevices(prefixes []netip.Prefix) {
	for i, prefix := range prefixes {
		dev := &netsim.ConflictDevice{ConflictIP: cloudflareDNS}
		switch i % 10 {
		case 0: // MikroTik router admin page
			dev.Kind = netsim.DeviceRouter
			dev.OpenPorts = map[uint16]string{80: "<title>RouterOS router configuration page — MikroTik</title>"}
		case 1: // cryptojacked router injecting a miner
			dev.Kind = netsim.DeviceMiner
			dev.OpenPorts = map[uint16]string{80: "<title>MikroTik</title><script src=\"coinhive.min.js\"></script>"}
		case 2: // modem
			dev.Kind = netsim.DeviceModem
			dev.OpenPorts = map[uint16]string{80: "<title>Powerbox Gvt Modem</title>"}
		case 3: // captive authentication portal
			dev.Kind = netsim.DeviceAuthPortal
			dev.OpenPorts = map[uint16]string{80: "<html>Authentication required: login to continue</html>"}
		case 4: // raw TCP services (SSH/telnet-style banners)
			dev.OpenPorts = map[uint16]string{22: "SSH-2.0-dropbear", 23: "login:"}
		default: // silent: internal routing or blackholing (the majority)
			dev.OpenPorts = nil
		}
		s.World.AddPolicy(dev, prefix)
	}
}
