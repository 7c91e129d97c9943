// Quickstart: build a tiny simulated Internet, run a resolver that speaks
// clear-text DNS, DoT and DoH, and query it with all three clients —
// comparing the latency of fresh versus reused encrypted connections, the
// paper's central performance observation (§4.3).
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/resolver"
)

func main() {
	// 1. A world: one client in Germany, one resolver in the Netherlands.
	world := netsim.NewWorld(42)
	client := netip.MustParseAddr("10.0.0.1")
	server := netip.MustParseAddr("192.0.2.53")
	world.Geo.Register(netip.MustParsePrefix("10.0.0.0/24"), geo.Location{Country: "DE", ASN: 3320, ASName: "DTAG"})
	world.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL", ASN: 1136, ASName: "KPN"})

	// 2. An authoritative zone answering anything under example.test.
	zone := dnsserver.NewZone("example.test")
	zone.WildcardA = netip.MustParseAddr("203.0.113.10")

	// 3. Serve it over UDP/53, TCP/53, DoT/853 and DoH/443.
	ca, err := certs.NewCA("Quickstart Root", true)
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{CommonName: "dns.example.test", IPs: []netip.Addr{server}})
	if err != nil {
		log.Fatal(err)
	}
	dnsserver.Serve(world, server, zone)
	dot.Serve(world, server, leaf, zone, time.Millisecond)
	doh.Serve(world, server, leaf, &doh.Server{Handler: zone, JSONAPI: true})

	// 4. Clear-text lookup over UDP.
	stub := dnsclient.New(world, client)
	res, err := stub.QueryUDPContext(context.Background(), server, "www.example.test", dnswire.TypeA)
	if err != nil {
		log.Fatal(err)
	}
	addr, _ := res.FirstA()
	fmt.Printf("DNS/UDP  answer=%v  latency=%v\n", addr, res.Latency)

	// 5. DoT with the Strict profile: authenticated and encrypted.
	roots := certs.Pool(ca)
	dotClient := dot.NewClient(world, client, roots, dot.Strict)
	conn, err := dotClient.Dial(server)
	if err != nil {
		log.Fatal(err)
	}
	defer conn.Close()
	fmt.Printf("DoT      session setup (TCP+TLS): %v\n", conn.SetupLatency())
	for i := 1; i <= 3; i++ {
		r, err := conn.Query(fmt.Sprintf("q%d.example.test", i), dnswire.TypeA)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("DoT      reused-connection query %d: %v\n", i, r.Latency)
	}

	// 6. DoH: a wire-format GET on a fresh session, opened by the resolver
	// client that opens every study session, plus the JSON API over a
	// stream dialed by hand.
	tmpl, _ := doh.ParseTemplate("https://dns.example.test/dns-query{?dns}")
	fresh := resolver.New(world, client, roots).Transport(resolver.ProtoDoH, resolver.Endpoint{Addr: server, Template: tmpl})
	if _, err := fresh.Exchange(context.Background(), dnswire.NewQuery(0, "doh.example.test", dnswire.TypeA)); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DoH      one-shot query (incl. connection setup): %v\n", fresh.LastLatency())

	raw, err := world.Dial(client, server, doh.Port)
	if err != nil {
		log.Fatal(err)
	}
	jr, err := (&doh.Client{Roots: roots}).QueryJSON(context.Background(), tmpl, raw, "json.example.test", dnswire.TypeA)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("DoH JSON Status=%d Answer=%v\n", jr.Status, jr.Answer)
}
