package doe_test

import (
	"context"
	"net/netip"
	"testing"

	"dnsencryption.info/doe/internal/core"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/resolver"
)

// Steady-state allocation budgets (DESIGN.md §9): hard ceilings on the
// allocations one Exchange on a primed Client.Dial session may perform —
// the reused session the study times — measured with testing.AllocsPerRun
// across client and server goroutines. The ceilings carry slack over the
// measured values (sync.Pool may shed buffers under GC pressure) but sit at
// or below half the pre-pooling counts — DoT was 59 allocs/op and DoH 130
// before the buffer-reuse work — so a regression past 50% of the old cost
// fails here before it reaches a trajectory diff.
const (
	allocBudgetDoT = 25
	allocBudgetDoH = 65
	allocBudgetTCP = 22
	// DoQ measures 19 allocs/op: one pooled flight buffer in, one demuxed
	// message out, no per-query goroutine or TLS record machinery.
	allocBudgetDoQ = 24
)

// Multiplexed-session ceilings: an Exchange routed through the pipelining
// engine (TCP/DoT) or the HTTP/2 stream layer (DoH) at MaxInFlight=8 may
// cost at most 1.5× the serial budget — the demux slot, rendezvous channel
// and per-stream frames must stay pooled.
const (
	allocBudgetDoTMux = allocBudgetDoT * 3 / 2
	allocBudgetDoHMux = allocBudgetDoH * 3 / 2
	allocBudgetTCPMux = allocBudgetTCP * 3 / 2
	allocBudgetDoQMux = allocBudgetDoQ * 3 / 2
)

// exchangeAllocs measures the average allocations of one Exchange on a
// session dialed by resolver.Client.Dial and primed by one Exchange, so
// steady state starts after the dial and the first query.
func exchangeAllocs(t *testing.T, c *resolver.Client, p resolver.Proto, ep resolver.Endpoint) float64 {
	t.Helper()
	ctx := context.Background()
	sess, err := c.Dial(ctx, p, ep)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	msg := dnswire.NewQuery(0, "bench."+core.ProbeZone, dnswire.TypeA)
	if _, err := sess.Exchange(ctx, msg); err != nil {
		t.Fatal(err)
	}
	return testing.AllocsPerRun(200, func() {
		if _, err := sess.Exchange(ctx, msg); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAllocBudgetDoTExchange(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	if got := exchangeAllocs(t, c, resolver.ProtoDoT, resolver.Endpoint{Addr: s.Targets[0].DoT}); got > allocBudgetDoT {
		t.Errorf("DoT steady-state exchange: %.1f allocs/op, budget %d", got, allocBudgetDoT)
	}
}

func TestAllocBudgetDoHExchange(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	tgt := s.Targets[0]
	if got := exchangeAllocs(t, c, resolver.ProtoDoH, resolver.Endpoint{Addr: tgt.DoHAddr, Template: tgt.DoH}); got > allocBudgetDoH {
		t.Errorf("DoH steady-state exchange: %.1f allocs/op, budget %d", got, allocBudgetDoH)
	}
}

func TestAllocBudgetDoQExchange(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	if got := exchangeAllocs(t, c, resolver.ProtoDoQ, resolver.Endpoint{Addr: s.Targets[0].DoQ}); got > allocBudgetDoQ {
		t.Errorf("DoQ steady-state exchange: %.1f allocs/op, budget %d", got, allocBudgetDoQ)
	}
}

func TestAllocBudgetTCPExchange(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots)
	if got := exchangeAllocs(t, c, resolver.ProtoTCP, resolver.Endpoint{Addr: s.Targets[0].DNS}); got > allocBudgetTCP {
		t.Errorf("TCP steady-state exchange: %.1f allocs/op, budget %d", got, allocBudgetTCP)
	}
}

func TestAllocBudgetDoTExchangeInflight8(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	if got := exchangeAllocs(t, c, resolver.ProtoDoT, resolver.Endpoint{Addr: s.Targets[0].DoT}); got > allocBudgetDoTMux {
		t.Errorf("DoT pipelined exchange: %.1f allocs/op, budget %d", got, allocBudgetDoTMux)
	}
}

func TestAllocBudgetDoHExchangeInflight8(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	tgt := s.Targets[0]
	if got := exchangeAllocs(t, c, resolver.ProtoDoH, resolver.Endpoint{Addr: tgt.DoHAddr, Template: tgt.DoH}); got > allocBudgetDoHMux {
		t.Errorf("DoH multiplexed exchange: %.1f allocs/op, budget %d", got, allocBudgetDoHMux)
	}
}

func TestAllocBudgetDoQExchangeInflight8(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	if got := exchangeAllocs(t, c, resolver.ProtoDoQ, resolver.Endpoint{Addr: s.Targets[0].DoQ}); got > allocBudgetDoQMux {
		t.Errorf("DoQ concurrent-stream exchange: %.1f allocs/op, budget %d", got, allocBudgetDoQMux)
	}
}

func TestAllocBudgetTCPExchangeInflight8(t *testing.T) {
	s := study(t)
	c := resolver.New(s.World, netip.MustParseAddr("172.20.1.1"), s.Roots, resolver.WithMaxInFlight(8))
	if got := exchangeAllocs(t, c, resolver.ProtoTCP, resolver.Endpoint{Addr: s.Targets[0].DNS}); got > allocBudgetTCPMux {
		t.Errorf("TCP pipelined exchange: %.1f allocs/op, budget %d", got, allocBudgetTCPMux)
	}
}
