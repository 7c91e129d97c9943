// DNSCrypt: the fifth protocol of Table 1, end to end. A resolver publishes
// an Ed25519-signed certificate through a TXT record; the client verifies
// it against the pinned provider key, then exchanges queries protected with
// X25519-XSalsa20Poly1305 — including what happens when an attacker
// tampers with a response in flight.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/dnscrypt"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

func main() {
	world := netsim.NewWorld(2011) // the year OpenDNS deployed DNSCrypt
	client := netip.MustParseAddr("10.0.0.1")
	resolver := netip.MustParseAddr("208.67.222.222")
	world.Geo.Register(netip.MustParsePrefix("10.0.0.0/24"), geo.Location{Country: "US"})
	world.Geo.Register(netip.MustParsePrefix("208.67.222.0/24"), geo.Location{Country: "US", ASN: 36692, ASName: "OpenDNS"})

	zone := dnsserver.NewZone("crypt.example.test")
	zone.WildcardA = netip.MustParseAddr("203.0.113.11")

	srv, providerPK, err := dnscrypt.NewServer("example-provider.test", zone)
	if err != nil {
		log.Fatal(err)
	}
	world.RegisterDatagram(resolver, dnscrypt.Port, srv.DatagramHandler())
	fmt.Printf("resolver cert: serial=%d es-version=%d valid %s..%s\n",
		srv.Cert.Serial, srv.Cert.ESVersion,
		srv.Cert.NotBefore.Format("2006-01-02"), srv.Cert.NotAfter.Format("2006-01-02"))

	c, err := dnscrypt.NewClient(world, client, "example-provider.test", providerPK)
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	start := time.Now()
	if err := c.FetchCertContext(ctx, resolver); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("certificate bootstrapped and Ed25519-verified in %v (wall)\n", time.Since(start).Round(time.Microsecond))

	res, err := c.QueryContext(ctx, resolver, "www.crypt.example.test", dnswire.TypeA)
	if err != nil {
		log.Fatal(err)
	}
	addr, _ := res.FirstA()
	fmt.Printf("encrypted query answered: %v (virtual latency %v)\n", addr, res.Latency)

	// Demonstrate tamper resistance: a middlebox flipping one ciphertext
	// bit makes the box fail authentication.
	var key [32]byte
	var nonce [24]byte
	sealed := dnscrypt.SecretboxSeal([]byte("a DNS query"), &nonce, &key)
	sealed[20] ^= 0x01
	if _, err := dnscrypt.SecretboxOpen(sealed, &nonce, &key); err != nil {
		fmt.Printf("tampered box rejected: %v\n", err)
	}
}
