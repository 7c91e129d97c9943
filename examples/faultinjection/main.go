// Faultinjection: build a small simulated Internet, make its network lossy
// with a deterministic, seeded fault injector, and watch the resolver's
// retry/backoff layer carry measurements through anyway. The same seed
// always produces the same faults, so "flaky network" runs are exactly
// reproducible — the property the chaos suite builds on.
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/faults"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/resolver"
)

func main() {
	// 1. A world with one client and one DoT resolver.
	world := netsim.NewWorld(42)
	client := netip.MustParseAddr("10.0.0.1")
	server := netip.MustParseAddr("192.0.2.53")

	zone := dnsserver.NewZone("example.test")
	zone.WildcardA = netip.MustParseAddr("203.0.113.10")

	ca, err := certs.NewCA("Faultinjection Root", true)
	if err != nil {
		log.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{CommonName: "dns.example.test", IPs: []netip.Addr{server}})
	if err != nil {
		log.Fatal(err)
	}
	dot.Serve(world, server, leaf, zone, time.Millisecond)

	// 2. A fault injector: the first two dials on every (src, dst, port)
	// tuple are refused, then the path heals — the shape of a flaky anycast
	// backend. Faults are a pure function of (seed, tuple, attempt), so
	// seed 7 produces this exact schedule every run.
	inj := faults.New(7, nil)
	inj.Default = faults.Flaky(2)
	world.SetFaults(inj)

	ctx := context.Background()
	query := func() *dnswire.Message {
		return dnswire.NewQuery(0, "www.example.test", dnswire.TypeA)
	}

	// 3. Without retries the first lookup just fails — and burns the first
	// of the tuple's two flaky dials. A Transport dials a fresh session for
	// every Exchange, so each lookup below is one dial, or more when it
	// retries.
	ep := resolver.Endpoint{Addr: server}
	bare := resolver.New(world, client, certs.Pool(ca)).Transport(resolver.ProtoDoT, ep)
	if _, err := bare.Exchange(ctx, query()); err != nil {
		fmt.Printf("no retry:    first DoT lookup fails: %v\n", err)
	}

	// 4. With a retry budget the remaining failure is invisible to the
	// caller: attempt 1 hits the tuple's second flaky dial, attempt 2
	// lands. The 25 ms backoff is charged to the virtual clock, never
	// slept; the latency also includes the session's TCP+TLS setup.
	tr := resolver.New(world, client, certs.Pool(ca),
		resolver.WithRetry(resolver.RetryPolicy{Attempts: 3, Backoff: 25 * time.Millisecond}),
	).Transport(resolver.ProtoDoT, ep)

	m, err := tr.Exchange(ctx, query())
	if err != nil {
		log.Fatalf("retrying lookup: %v", err)
	}
	addr, _ := m.FirstA()
	fmt.Printf("with retry:  answer=%v  latency=%v (includes setup and 25 ms virtual backoff)\n",
		addr, tr.LastLatency())

	// 5. The path healed, so later lookups are single-attempt: one fresh
	// dial each, setup included.
	if _, err := tr.Exchange(ctx, query()); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("healed path: latency=%v\n", tr.LastLatency())

	// 6. Both layers kept books. The injector counted what it broke (four
	// dials: one per attempt); the transport counted what it took to
	// recover.
	st := inj.Stats()
	fmt.Printf("injector:    %d stream dials seen, %d failed flaky\n", st.StreamDials, st.FlakyFailures)
	fmt.Printf("transport:   %+v\n", tr.Stats())
}
