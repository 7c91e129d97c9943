// Resolverscan: §3 in miniature. Build a world with a mixed port-853
// population — genuine DoT resolvers with valid, expired, self-signed and
// broken-chain certificates, a FortiGate inspection device, a
// fixed-answer filtering resolver, and TLS-but-not-DNS hosts — then run a
// ZMap-style permutation sweep plus DoT verification probes and print the
// provider/certificate breakdown the paper reports in Findings 1.1/1.2.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/analysis"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/scanner"
)

func main() {
	world := netsim.NewWorld(7)
	world.Geo.Register(netip.MustParsePrefix("100.64.0.0/16"), geo.Location{Country: "IE", ASN: 64500, ASName: "Irish Hosting"})
	world.Geo.Register(netip.MustParsePrefix("100.64.1.0/24"), geo.Location{Country: "US", ASN: 64501, ASName: "US Cloud"})

	ca, err := certs.NewCA("Example Root", true)
	if err != nil {
		log.Fatal(err)
	}
	expected := netip.MustParseAddr("203.0.113.1")
	zone := dnsserver.NewZone("scan.example.test")
	zone.WildcardA = expected

	addr := func(s string) netip.Addr { return netip.MustParseAddr(s) }

	// A large provider with three addresses and valid certificates.
	for i, ip := range []string{"100.64.0.10", "100.64.0.11", "100.64.1.12"} {
		leaf, err := ca.Issue(certs.LeafOptions{
			CommonName: "dns.bigprovider.test",
			IPs:        []netip.Addr{addr(ip)},
		})
		if err != nil {
			log.Fatal(err)
		}
		dot.Serve(world, addr(ip), leaf, zone, time.Duration(i)*time.Millisecond)
	}
	// A small provider with an expired certificate (out of maintenance).
	expired, err := ca.IssueExpired(certs.LeafOptions{CommonName: "dot.smalldns.test"}, 9*30*24*time.Hour)
	if err != nil {
		log.Fatal(err)
	}
	dot.Serve(world, addr("100.64.0.20"), expired, zone, 0)
	// Self-signed single-address provider.
	selfSigned, err := certs.SelfSigned(certs.LeafOptions{CommonName: "qq.dog"})
	if err != nil {
		log.Fatal(err)
	}
	dot.Serve(world, addr("100.64.0.21"), selfSigned, zone, 0)
	// A FortiGate firewall acting as a DoT proxy (default certificate).
	forti, err := certs.FortiGateDefault()
	if err != nil {
		log.Fatal(err)
	}
	dot.Serve(world, addr("100.64.0.22"), forti, zone, 0)
	// Broken chain: leaf without its intermediate.
	broken, err := ca.IssueBrokenChain(certs.LeafOptions{CommonName: "dns.chainless.test"})
	if err != nil {
		log.Fatal(err)
	}
	dot.Serve(world, addr("100.64.0.23"), broken, zone, 0)
	// A filtering resolver answering every query with one fixed address.
	filt, err := ca.Issue(certs.LeafOptions{CommonName: "dnsfilter.test"})
	if err != nil {
		log.Fatal(err)
	}
	dot.Serve(world, addr("100.64.0.30"), filt, dnsserver.Static{Addr: addr("146.112.61.106")}, 0)
	// Hosts with port 853 open that are not DNS at all.
	for _, ip := range []string{"100.64.0.40", "100.64.0.41", "100.64.0.42"} {
		dot.ServeNotDNS(world, addr(ip), nil)
	}

	s := &scanner.Scanner{
		World:       world,
		Sources:     []netip.Addr{addr("100.64.1.1"), addr("100.64.1.2")},
		Space:       scanner.Space{Base: addr("100.64.0.0"), Size: 1 << 12},
		OptOut:      &netsim.OptOutList{},
		ProbeDomain: "probe-0001.scan.example.test",
		ExpectedA:   expected,
		Roots:       certs.Pool(ca),
		Workers:     4,
		Seed:        99,
	}
	res, err := s.ScanContext(context.Background(), "example")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("swept %d addresses: %d with port 853 open, %d verified DoT resolvers\n\n",
		res.ProbedAddrs, res.PortOpen, len(res.Resolvers))
	table := &analysis.Table{
		Title:   "Discovered open DoT resolvers",
		Columns: []string{"Address", "Provider", "Certificate", "Answer OK", "Country"},
	}
	for _, r := range res.Resolvers {
		table.AddRow(r.Addr, r.Provider, r.CertStatus, r.AnswerCorrect, r.Country)
	}
	fmt.Println(table.Render())
	fmt.Printf("providers with invalid certificates: %v\n", res.InvalidCertProviders())
}
