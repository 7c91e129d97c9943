package faults_test

// The chaos suite: every experiment of the study must complete under every
// fault profile and fault seed, the full report must stay byte-identical
// across worker counts for a fixed fault seed (the matrix half of that
// guarantee lives in internal/core's worker-count test), and recovery
// statistics must match hand-computed expectations on exactly-known fault
// schedules.

import (
	"context"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/faults"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/resolver"
)

// chaosConfig is the smallest world that still runs every experiment.
func chaosConfig() core.Config {
	cfg := core.TestConfig()
	cfg.ScanRounds = 2
	cfg.GlobalNodes = 24
	cfg.CensoredNodes = 12
	cfg.PerfNodes = 6
	cfg.PerfQueriesReused = 4
	cfg.PerfQueriesFresh = 4
	return cfg
}

// TestChaosEveryProfileEverySeedCompletes sweeps the full profile × fault
// seed matrix: under every mix the retry layer must carry every experiment
// to completion — no ERROR lines, no hard experiment failures.
func TestChaosEveryProfileEverySeedCompletes(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep builds 12 worlds")
	}
	for _, profile := range []string{"mild", "harsh", "flaky", "regional"} {
		for _, seed := range []int64{0, 1, 2} {
			profile, seed := profile, seed
			t.Run(profile+"/seed"+string(rune('0'+seed)), func(t *testing.T) {
				t.Parallel()
				cfg := chaosConfig()
				cfg.Faults = core.FaultsConfig{Profile: profile, Seed: seed}
				s, err := core.NewStudy(cfg)
				if err != nil {
					t.Fatalf("NewStudy: %v", err)
				}
				var b strings.Builder
				if err := s.RunAll(&b); err != nil {
					t.Fatalf("RunAll under %s/seed=%d: %v", profile, seed, err)
				}
				out := b.String()
				if strings.Contains(out, "ERROR") {
					idx := strings.Index(out, "ERROR")
					t.Fatalf("report has errors under %s/seed=%d: ...%s",
						profile, seed, out[idx:min(len(out), idx+300)])
				}
				if !strings.Contains(out, "== faults:") {
					t.Fatal("faults summary section missing")
				}
				// The injector must actually have done something; a chaos
				// run against a silently disabled injector proves nothing.
				if s.Faults.Stats().Faulted() == 0 && profile != "mild" {
					t.Errorf("profile %s injected no faults", profile)
				}
			})
		}
	}
}

// chaosWorld is a minimal direct netsim world (no core study) for
// hand-computed recovery accounting: one clear-text DNS server (queried
// over TCP), one client tuple, an exactly-known fault schedule.
func chaosWorld(t *testing.T) (*netsim.World, netip.Addr, netip.Addr) {
	t.Helper()
	w := netsim.NewWorld(99)
	client := netip.MustParseAddr("10.2.3.4")
	server := netip.MustParseAddr("192.0.2.10")
	z := dnsserver.NewZone("probe.example.org")
	z.WildcardA = netip.MustParseAddr("203.0.113.9")
	dnsserver.Serve(w, server, z)
	return w, client, server
}

// TestChaosRecoveryStatsHandComputed drives a transport through a Flaky(1)
// schedule, where every number is computable by hand: the first dial on the
// tuple is refused, everything after is clean. With a 3-attempt budget the
// first Exchange recovers on its second attempt; the remaining four are
// single-attempt successes.
func TestChaosRecoveryStatsHandComputed(t *testing.T) {
	w, client, server := chaosWorld(t)
	inj := faults.New(1, nil)
	inj.Default = faults.Flaky(1)
	w.SetFaults(inj)

	tr := resolver.New(w, client, nil,
		resolver.WithRetry(resolver.RetryPolicy{Attempts: 3}),
	).Transport(resolver.ProtoTCP, resolver.Endpoint{Addr: server})
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		q := dnswire.NewQuery(0, "q.probe.example.org", dnswire.TypeA)
		if _, err := tr.Exchange(ctx, q); err != nil {
			t.Fatalf("exchange %d: %v", i, err)
		}
	}
	got := tr.Stats()
	want := resolver.RetryStats{Attempts: 6, Retries: 1, Recovered: 1}
	if got != want {
		t.Errorf("transport stats = %+v, want %+v", got, want)
	}
	st := inj.Stats()
	if st.StreamDials != 6 || st.FlakyFailures != 1 || st.Faulted() != 1 {
		t.Errorf("injector stats = %+v, want 6 dials / 1 flaky failure", st)
	}
}

// TestChaosNoRetryNoRecovery is the control arm: the same Flaky(1) schedule
// without a retry budget turns the first Exchange into a hard failure.
func TestChaosNoRetryNoRecovery(t *testing.T) {
	w, client, server := chaosWorld(t)
	inj := faults.New(1, nil)
	inj.Default = faults.Flaky(1)
	w.SetFaults(inj)

	tr := resolver.New(w, client, nil).Transport(resolver.ProtoTCP, resolver.Endpoint{Addr: server})
	ctx := context.Background()
	q := dnswire.NewQuery(0, "q.probe.example.org", dnswire.TypeA)
	if _, err := tr.Exchange(ctx, q); err == nil {
		t.Fatal("first exchange unexpectedly survived without retries")
	}
	if _, err := tr.Exchange(ctx, q); err != nil {
		t.Fatalf("second exchange: %v", err)
	}
	got := tr.Stats()
	want := resolver.RetryStats{Attempts: 2, HardFailures: 1}
	if got != want {
		t.Errorf("transport stats = %+v, want %+v", got, want)
	}
}

// chaosDoQWorld extends chaosWorld with a DoQ endpoint on UDP 853 and
// returns the trust store its certificate verifies against.
func chaosDoQWorld(t *testing.T) (*netsim.World, netip.Addr, netip.Addr, *certs.TrustStore) {
	t.Helper()
	w, client, server := chaosWorld(t)
	ca, err := certs.NewCA("Chaos Root", true)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: "probe.example.org",
		DNSNames:   []string{"probe.example.org"},
		IPs:        []netip.Addr{server},
	})
	if err != nil {
		t.Fatal(err)
	}
	z := dnsserver.NewZone("probe.example.org")
	z.WildcardA = netip.MustParseAddr("203.0.113.9")
	doq.Serve(w, server, leaf, z, 0)
	return w, client, server, certs.Pool(ca)
}

// doqTransport returns a retrying DoQ Transport from client to server:
// every Exchange, and every retry, dials a fresh session.
func doqTransport(w *netsim.World, client, server netip.Addr, roots *certs.TrustStore) *resolver.Transport {
	return resolver.New(w, client, roots,
		resolver.WithRetry(resolver.RetryPolicy{Attempts: 3}),
	).Transport(resolver.ProtoDoQ, resolver.Endpoint{Addr: server})
}

// TestChaosDoQFlightLossExhaustsBudget pins the DoQ loss-handling contract
// on an exactly-known schedule: with every datagram dropped, each attempt
// dials 0-RTT from the resumption cache — sending NO datagram and so
// consuming NO fault draw — and its one query flight is dropped, which
// kills that session with doq.ErrClosed. Every number below is computable
// by hand.
func TestChaosDoQFlightLossExhaustsBudget(t *testing.T) {
	w, client, server, roots := chaosDoQWorld(t)
	tr := doqTransport(w, client, server, roots)
	ctx := context.Background()

	// Warm fault-free: the 1-RTT handshake seeds the 0-RTT cache.
	if _, err := tr.Exchange(ctx, dnswire.NewQuery(0, "warm.probe.example.org", dnswire.TypeA)); err != nil {
		t.Fatal(err)
	}

	inj := faults.New(1, nil)
	inj.Default = faults.Profile{DgramDrop: 1}
	w.SetFaults(inj)

	_, err := tr.Exchange(ctx, dnswire.NewQuery(0, "lost.probe.example.org", dnswire.TypeA))
	if err == nil {
		t.Fatal("exchange survived a fully lossy path")
	}
	if !errors.Is(err, doq.ErrClosed) {
		t.Errorf("err = %v, want doq.ErrClosed", err)
	}
	got := tr.Stats()
	// Warm exchange: 1 attempt. Lossy exchange: 3 attempts (2 retries),
	// budget exhausted.
	want := resolver.RetryStats{Attempts: 4, Retries: 2, HardFailures: 1}
	if got != want {
		t.Errorf("transport stats = %+v, want %+v", got, want)
	}
	// Three query flights were dropped; the three 0-RTT dials put nothing
	// on the wire, so the injector saw exactly three datagrams.
	if st := inj.Stats(); st.Datagrams != 3 || st.DgramDrops != 3 {
		t.Errorf("injector stats = %+v, want 3 datagrams / 3 drops", st)
	}
}

// TestChaosDoQRecoveryStatsHandComputed drives a warm DoQ transport
// through a drop-then-clean datagram schedule (injector seed 5 with
// DgramDrop=0.5 draws drop, pass on this tuple — pinned by the injector's
// determinism contract): the first attempt's flight is lost, the retry
// dials 0-RTT and its flight goes through. Recovery statistics and the
// recovered latency are exactly computable.
func TestChaosDoQRecoveryStatsHandComputed(t *testing.T) {
	w, client, server, roots := chaosDoQWorld(t)
	tr := doqTransport(w, client, server, roots)
	ctx := context.Background()

	// The first exchange pays the 1-RTT handshake and seeds the cache; the
	// second is a clean 0-RTT exchange: no setup, one flight.
	for _, name := range []string{"aaaa.probe.example.org", "bbbb.probe.example.org"} {
		if _, err := tr.Exchange(ctx, dnswire.NewQuery(0, name, dnswire.TypeA)); err != nil {
			t.Fatal(err)
		}
	}
	clean := tr.LastLatency()

	inj := faults.New(5, nil)
	inj.Default = faults.Profile{DgramDrop: 0.5}
	w.SetFaults(inj)

	// Same-length name as the clean exchange, so the two flights are
	// latency-identical and the recovered cost is directly comparable.
	if _, err := tr.Exchange(ctx, dnswire.NewQuery(0, "cccc.probe.example.org", dnswire.TypeA)); err != nil {
		t.Fatalf("exchange did not recover: %v", err)
	}
	got := tr.Stats()
	want := resolver.RetryStats{Attempts: 4, Retries: 1, Recovered: 1}
	if got != want {
		t.Errorf("transport stats = %+v, want %+v", got, want)
	}
	if st := inj.Stats(); st.Datagrams != 2 || st.DgramDrops != 1 {
		t.Errorf("injector stats = %+v, want 2 datagrams / 1 drop", st)
	}
	// The lost flight cost nothing on its session's clock and a 0-RTT dial
	// charges no setup, so the recovered exchange costs exactly one clean
	// 0-RTT exchange — the honest-accounting half of the 0-RTT contract.
	if got := tr.LastLatency(); got != clean {
		t.Errorf("recovered latency = %v, want the clean 0-RTT exchange cost %v", got, clean)
	}
}

// TestChaosDoQHarshSweepCompletes runs a retrying DoQ transport through
// the Harsh datagram mix for several fault seeds: every exchange must
// complete within the budget, and the injector must actually have dropped
// something, or the sweep proves nothing. Harsh's only datagram failure is
// a drop, and every attempt sends one query flight, plus one Initial while
// the cache is cold. So each drop costs exactly one retry, an exchange
// recovers exactly when one of its flights was dropped, and the one
// handshake that completes adds the only datagram beyond one per attempt.
func TestChaosDoQHarshSweepCompletes(t *testing.T) {
	const exchanges = 40
	for _, seed := range []int64{0, 1, 2} {
		w, client, server, roots := chaosDoQWorld(t)
		inj := faults.New(seed, nil)
		inj.Default = faults.Harsh()
		w.SetFaults(inj)

		tr := doqTransport(w, client, server, roots)
		ctx := context.Background()
		recovered := 0
		for i := 0; i < exchanges; i++ {
			drops, attempts := inj.Stats().DgramDrops, tr.Stats().Attempts
			q := dnswire.NewQuery(0, "q.probe.example.org", dnswire.TypeA)
			if _, err := tr.Exchange(ctx, q); err != nil {
				t.Fatalf("seed %d: exchange %d: %v", seed, i, err)
			}
			dropped := int(inj.Stats().DgramDrops - drops)
			if got := tr.Stats().Attempts - attempts; got != 1+dropped {
				t.Errorf("seed %d: exchange %d took %d attempts for %d drops", seed, i, got, dropped)
			}
			if dropped > 0 {
				recovered++
			}
		}
		st := inj.Stats()
		if st.DgramDrops == 0 {
			t.Errorf("seed %d: harsh profile dropped no datagrams over %d flights", seed, st.Datagrams)
		}
		drops := int(st.DgramDrops)
		want := resolver.RetryStats{Attempts: exchanges + drops, Retries: drops, Recovered: recovered}
		if got := tr.Stats(); got != want {
			t.Errorf("seed %d: transport stats = %+v, want %+v", seed, got, want)
		}
		if st.Datagrams != uint64(want.Attempts)+1 {
			t.Errorf("seed %d: %d datagrams, want %d: one per attempt plus the completed handshake", seed, st.Datagrams, want.Attempts+1)
		}
	}
}

// TestChaosBackoffChargedToVirtualClock pins the retry latency contract:
// recovery penalties land on the virtual clock (LastLatency), never on the
// wall clock, and grow with the backoff schedule.
func TestChaosBackoffChargedToVirtualClock(t *testing.T) {
	w, client, server := chaosWorld(t)

	// Clean baseline latency for the same exchange.
	ep := resolver.Endpoint{Addr: server}
	base := resolver.New(w, client, nil).Transport(resolver.ProtoTCP, ep)
	q := dnswire.NewQuery(0, "q.probe.example.org", dnswire.TypeA)
	if _, err := base.Exchange(context.Background(), q); err != nil {
		t.Fatal(err)
	}
	clean := base.LastLatency()

	inj := faults.New(1, nil)
	inj.Default = faults.Flaky(2)
	w.SetFaults(inj)
	p := resolver.RetryPolicy{Attempts: 3, Backoff: 50 * time.Millisecond}
	tr := resolver.New(w, client, nil, resolver.WithRetry(p)).Transport(resolver.ProtoTCP, ep)
	if _, err := tr.Exchange(context.Background(), q); err != nil {
		t.Fatalf("exchange: %v", err)
	}
	// Two refused dials cost no connection time, so the recovered latency
	// is the clean cost plus the two backoff sleeps (50ms + 100ms), all
	// virtual.
	want := clean + 150*time.Millisecond
	if got := tr.LastLatency(); got != want {
		t.Errorf("recovered latency = %v, want %v (clean %v + 150ms backoff)", got, want, clean)
	}
}
