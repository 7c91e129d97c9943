// Reachability: §4 in miniature. A resolver offers all three transports; a
// SOCKS proxy network provides vantage points in different countries, one
// behind a port-53 filter, one behind a censoring middlebox and one behind
// a TLS-inspecting firewall. The example runs the Fig. 7 workflow from each
// node and prints the Table 4-style classification plus the interception
// evidence of Finding 2.3.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"sort"
	"time"

	"dnsencryption.info/doe/internal/analysis"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/vantage"
)

func main() {
	world := netsim.NewWorld(11)
	reg := func(prefix, cc string, asn int, name string) {
		world.Geo.Register(netip.MustParsePrefix(prefix), geo.Location{Country: cc, ASN: asn, ASName: name})
	}
	reg("172.16.0.0/16", "US", 1, "Measurement Lab")
	reg("192.0.2.0/24", "US", 2, "Resolver Co")
	reg("10.1.0.0/24", "DE", 100, "Clean ISP")
	reg("10.2.0.0/24", "ID", 101, "Filtering ISP")
	reg("10.3.0.0/24", "CN", 102, "Censored ISP")
	reg("10.4.0.0/24", "BR", 103, "Corporate network with DPI")

	resolverIP := netip.MustParseAddr("192.0.2.53")
	expected := netip.MustParseAddr("203.0.113.9")
	zone := dnsserver.NewZone("probe.example.test")
	zone.WildcardA = expected

	ca, err := certs.NewCA("Example Root", true)
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{CommonName: "dns.resolverco.test", IPs: []netip.Addr{resolverIP}})
	if err != nil {
		log.Fatal(err)
	}
	dnsserver.Serve(world, resolverIP, zone)
	dot.Serve(world, resolverIP, leaf, zone, time.Millisecond)
	doh.Serve(world, resolverIP, leaf, &doh.Server{Handler: zone})

	// Middleboxes.
	world.AddPolicy(&netsim.PortFilter{Port: 53}, netip.MustParsePrefix("10.2.0.0/24"))
	world.AddPolicy(&netsim.Censor{
		Countries: map[string]bool{"CN": true},
		BlockIPs:  map[netip.Addr]bool{resolverIP: true},
		BlockPorts: map[uint16]bool{
			443: true,
		},
		Blackhole: true,
	})
	dpiCA, err := certs.NewCA("Corporate DPI CA", false)
	if err != nil {
		log.Fatal(err)
	}
	world.AddPolicy(netsim.NewTLSInterceptor(dpiCA, 853, 443), netip.MustParsePrefix("10.4.0.0/24"))

	// The proxy network.
	network := proxy.NewNetwork(world, "example-proxies", netip.MustParseAddr("172.16.1.1"))
	for _, n := range []struct {
		id, addr, cc string
		asn          int
		as           string
	}{
		{"clean-de", "10.1.0.5", "DE", 100, "Clean ISP"},
		{"filtered-id", "10.2.0.5", "ID", 101, "Filtering ISP"},
		{"censored-cn", "10.3.0.5", "CN", 102, "Censored ISP"},
		{"dpi-br", "10.4.0.5", "BR", 103, "Corporate network with DPI"},
	} {
		network.AddNode(proxy.ExitNode{
			ID: n.id, Addr: netip.MustParseAddr(n.addr),
			Country: n.cc, ASN: n.asn, ASName: n.as, Lifetime: time.Hour,
		})
	}

	platform := &vantage.Platform{
		Network:   network,
		From:      netip.MustParseAddr("172.16.0.9"),
		Roots:     certs.Pool(ca),
		ProbeZone: "probe.example.test",
		ExpectedA: expected,
		MinUptime: time.Minute,
	}
	target := vantage.Target{
		Name:    "resolverco",
		DNS:     resolverIP,
		DoT:     resolverIP,
		DoH:     doh.Template{Host: "dns.resolverco.test", Path: doh.DefaultPath},
		DoHAddr: resolverIP,
	}

	// The campaign folds every lookup into one accumulator. Each node sits
	// in its own country here, so the per-country cells read as per-node
	// rows; TrackFailed keeps the IDs of the nodes whose lookups failed.
	tracked := []vantage.FailKey{
		{Resolver: target.Name, Proto: resolver.ProtoTCP},
		{Resolver: target.Name, Proto: resolver.ProtoDoH},
	}
	stats, err := platform.CampaignStream(context.Background(), []vantage.Target{target}, 4,
		vantage.CampaignOpts{TrackFailed: tracked})
	if err != nil {
		log.Fatal(err)
	}
	cells := make([]vantage.CellKey, 0, len(stats.Cells))
	for k := range stats.Cells {
		cells = append(cells, k)
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].Country != cells[j].Country {
			return cells[i].Country < cells[j].Country
		}
		return vantage.Label(cells[i].Proto) < vantage.Label(cells[j].Proto)
	})
	table := &analysis.Table{
		Title:   "Reachability per vantage country",
		Columns: []string{"CC", "Proto", "Correct", "Incorrect", "Failed"},
	}
	for _, k := range cells {
		t := stats.Cells[k]
		table.AddRow(k.Country, vantage.Label(k.Proto), t.Correct, t.Incorrect, t.Failed)
	}
	fmt.Println(table.Render())

	for _, k := range tracked {
		for _, ref := range stats.FailedRefs(k) {
			fmt.Printf("%s lookup failed from node %s\n", vantage.Label(k.Proto), ref.ID)
		}
	}
	for _, r := range stats.Intercepted() {
		fmt.Printf("TLS interception: node %s (%s) — resolver cert re-signed by %q, lookup still answered\n",
			r.NodeID, r.Country, r.IssuerCN)
	}
}
