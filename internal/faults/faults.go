// Package faults is a deterministic, seeded fault-injection layer for the
// simulated Internet. It implements netsim.FaultInjector: per flow tuple
// (src, dst, port) it derives an FNV-seeded fault schedule that decides —
// independently of goroutine scheduling and wall-clock time — whether a
// given dial attempt loses its SYN, is refused, stalls, has its TLS
// handshake truncated, or is reset mid-stream, and whether a backend is
// "flaky" (fails the first N attempts on a tuple, then recovers).
//
// Determinism contract: the fault decision for attempt k on a tuple is a
// pure function of (injector seed, tuple, k). Each attempt consumes a fixed
// number of RNG draws, so the schedule for attempt k+1 never depends on
// which faults fired before it. Report byte-identity across worker counts
// additionally requires that every faulted tuple is dialed by exactly one
// worker task at a time; the Sources gate (restricting faults to flows
// originating from vantage-edge prefixes) is how the core study guarantees
// that — shared infrastructure legs stay fault-free.
package faults

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
)

// Profile is the fault mix applied to flows from one region (or, as the
// Default, to all gated flows). Probabilities are per dial attempt; the
// zero value injects nothing.
type Profile struct {
	// SYNDrop is the probability a stream dial's SYN is lost (timeout).
	SYNDrop float64
	// Refuse is the probability a stream dial is actively refused.
	Refuse float64
	// HandshakeCut is the probability the connection resets before the
	// client receives any server data — a truncated TLS handshake.
	HandshakeCut float64
	// Reset is the probability of a mid-stream RST after the handshake.
	Reset float64
	// ResetWindow spreads mid-stream resets over segments 2..2+ResetWindow-1
	// of the server's response stream (0 means a fixed cut at segment 2).
	ResetWindow int
	// Stall is the probability a dial is charged extra virtual latency
	// (a loss/retransmission episode on an otherwise surviving flow).
	Stall float64
	// StallBase scales stalls: a stalled flow is charged a latency in
	// [StallBase, 2*StallBase).
	StallBase time.Duration
	// DgramDrop is the probability a datagram exchange is lost.
	DgramDrop float64
	// DgramStall is the probability a datagram exchange is charged extra
	// latency (same [StallBase, 2*StallBase) range).
	DgramStall float64
	// FlakyFirstN refuses the first N stream dials on every tuple before
	// letting any through — the "cold backend" that needs retries to reach.
	FlakyFirstN int
}

// zero reports whether the profile can never inject anything.
func (p Profile) zero() bool {
	return p.SYNDrop == 0 && p.Refuse == 0 && p.HandshakeCut == 0 &&
		p.Reset == 0 && p.Stall == 0 && p.DgramDrop == 0 &&
		p.DgramStall == 0 && p.FlakyFirstN == 0
}

// Stats is a snapshot of injected-fault counters.
type Stats struct {
	StreamDials   uint64 // gated stream dials consulted
	SYNDrops      uint64
	Refusals      uint64
	HandshakeCuts uint64
	Resets        uint64
	Stalls        uint64
	FlakyFailures uint64
	Datagrams     uint64 // gated datagram exchanges consulted
	DgramDrops    uint64
	DgramStalls   uint64
}

// Faulted returns the total number of faulted stream dials (excluding
// stalls, which delay but do not fail the flow).
func (s Stats) Faulted() uint64 {
	return s.SYNDrops + s.Refusals + s.HandshakeCuts + s.Resets + s.FlakyFailures
}

// Injector implements netsim.FaultInjector with per-tuple seeded schedules.
// Configure (Default, Regions, Sources) before installing it with
// World.SetFaults; the fields must not be mutated afterwards.
type Injector struct {
	// Default applies to gated flows whose origin country has no entry in
	// Regions.
	Default Profile
	// Regions overrides the profile per origin country (geo code), making
	// e.g. Southeast-Asian residential paths lossier than EU ones.
	Regions map[string]Profile
	// Sources, when non-empty, restricts faults to flows originating from
	// these prefixes. The core study sets it to the vantage-edge prefixes
	// so that infrastructure legs shared between concurrent worker tasks
	// stay deterministic (see the package comment).
	Sources []netip.Prefix
	// Obs, when set, receives per-kind fault counters and annotates the
	// span watching the faulted flow (obs.Recorder.WatchFlow) with a
	// fault:<kind> event. The Sources gate doubles as the determinism
	// argument: a watched tuple is task-private, so the annotation lands
	// on exactly one span regardless of worker count. Nil disables both.
	Obs *obs.Recorder

	seed int64
	geo  *geo.Registry

	mu    sync.Mutex
	flows map[flowKey]*flowState

	streamDials   atomic.Uint64
	synDrops      atomic.Uint64
	refusals      atomic.Uint64
	handshakeCuts atomic.Uint64
	resets        atomic.Uint64
	stalls        atomic.Uint64
	flakyFailures atomic.Uint64
	datagrams     atomic.Uint64
	dgramDrops    atomic.Uint64
	dgramStalls   atomic.Uint64
}

type flowKey struct {
	from, to netip.Addr
	port     uint16
	proto    netsim.Proto
}

type flowState struct {
	rng      *rand.Rand
	attempts int
}

// New creates an injector. g resolves origin countries for Regions lookups
// and may be nil when only Default is used.
func New(seed int64, g *geo.Registry) *Injector {
	return &Injector{seed: seed, geo: g, flows: make(map[flowKey]*flowState)}
}

// Seed returns the injector's seed (reports echo it).
func (i *Injector) Seed() int64 { return i.seed }

// profileFor returns the profile applying to flows from the given origin,
// and whether the origin passes the Sources gate at all.
func (i *Injector) profileFor(from netip.Addr) (Profile, bool) {
	if len(i.Sources) > 0 {
		gated := false
		for _, p := range i.Sources {
			if p.Contains(from) {
				gated = true
				break
			}
		}
		if !gated {
			return Profile{}, false
		}
	}
	p := i.Default
	if i.geo != nil && len(i.Regions) > 0 {
		if rp, ok := i.Regions[i.geo.Country(from)]; ok {
			p = rp
		}
	}
	return p, true
}

// draws advances the tuple's attempt counter and consumes exactly n RNG
// draws from its schedule, atomically: concurrent attempts on a shared
// tuple cannot interleave their draws. (Shared tuples are still
// schedule-dependent in *which* attempt each dialer observes — the Sources
// gate is what keeps faulted tuples task-private.)
func (i *Injector) draws(k flowKey, n int) ([]float64, int) {
	i.mu.Lock()
	defer i.mu.Unlock()
	st, ok := i.flows[k]
	if !ok {
		st = &flowState{rng: rand.New(netsim.NewSource(i.tupleSeed(k)))}
		i.flows[k] = st
	}
	st.attempts++
	d := make([]float64, n)
	for j := range d {
		d[j] = st.rng.Float64()
	}
	return d, st.attempts
}

// tupleSeed derives the per-tuple RNG seed: FNV-64a over the injector seed
// and the flow tuple, mirroring netsim's flowRNG discipline.
func (i *Injector) tupleSeed(k flowKey) int64 {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(i.seed))
	h.Write(buf[:])
	h.Write([]byte{byte(k.proto)})
	b, _ := k.from.MarshalBinary()
	h.Write(b)
	b, _ = k.to.MarshalBinary()
	h.Write(b)
	binary.BigEndian.PutUint64(buf[:], uint64(k.port))
	h.Write(buf[:])
	return int64(h.Sum64())
}

// inject records one injected fault in the telemetry layer, if one is
// attached: a per-kind counter plus a fault:<kind> event on whichever span
// is watching the (from, to) flow.
func (i *Injector) inject(from, to netip.Addr, kind string) {
	if i.Obs == nil {
		return
	}
	i.Obs.Metrics().Counter("faults_injected_total", "kind", kind).Add(1)
	i.Obs.FlowEvent(from, to, "fault:"+kind)
}

// StreamFault implements netsim.FaultInjector. Exactly five RNG draws are
// consumed per attempt regardless of which faults fire, so the schedule
// for attempt k is independent of the outcomes of attempts < k.
func (i *Injector) StreamFault(from, to netip.Addr, port uint16) netsim.DialFault {
	p, gated := i.profileFor(from)
	if !gated || p.zero() {
		return netsim.DialFault{}
	}
	d, attempt := i.draws(flowKey{from: from, to: to, port: port, proto: netsim.Stream}, 5)
	dDrop, dRefuse, dCut, dCutSeg, dStall := d[0], d[1], d[2], d[3], d[4]

	i.streamDials.Add(1)
	var f netsim.DialFault
	switch {
	case attempt <= p.FlakyFirstN:
		f.Refuse = true
		i.flakyFailures.Add(1)
		i.inject(from, to, "flaky-failure")
	case dDrop < p.SYNDrop:
		f.Drop = true
		i.synDrops.Add(1)
		i.inject(from, to, "syn-drop")
	case dRefuse < p.Refuse:
		f.Refuse = true
		i.refusals.Add(1)
		i.inject(from, to, "refusal")
	case dCut < p.HandshakeCut:
		f.CutAfterSegments = 1
		i.handshakeCuts.Add(1)
		i.inject(from, to, "handshake-cut")
	case dCut < p.HandshakeCut+p.Reset:
		f.CutAfterSegments = 2
		if p.ResetWindow > 0 {
			f.CutAfterSegments += int(dCutSeg * float64(p.ResetWindow))
		}
		i.resets.Add(1)
		i.inject(from, to, "reset")
	}
	if !f.Drop && !f.Refuse && dStall < p.Stall && p.StallBase > 0 {
		f.ExtraLatency = p.StallBase + time.Duration(dStall/p.Stall*float64(p.StallBase))
		i.stalls.Add(1)
		i.inject(from, to, "stall")
	}
	return f
}

// DatagramFault implements netsim.FaultInjector. Two draws per exchange.
func (i *Injector) DatagramFault(from, to netip.Addr, port uint16) netsim.DatagramFault {
	p, gated := i.profileFor(from)
	if !gated || p.zero() {
		return netsim.DatagramFault{}
	}
	d, _ := i.draws(flowKey{from: from, to: to, port: port, proto: netsim.Datagram}, 2)
	dDrop, dStall := d[0], d[1]

	i.datagrams.Add(1)
	var f netsim.DatagramFault
	if dDrop < p.DgramDrop {
		f.Drop = true
		i.dgramDrops.Add(1)
		i.inject(from, to, "dgram-drop")
		return f
	}
	if dStall < p.DgramStall && p.StallBase > 0 {
		f.ExtraLatency = p.StallBase + time.Duration(dStall/p.DgramStall*float64(p.StallBase))
		i.dgramStalls.Add(1)
		i.inject(from, to, "dgram-stall")
	}
	return f
}

// Stats returns a snapshot of the fault counters.
func (i *Injector) Stats() Stats {
	return Stats{
		StreamDials:   i.streamDials.Load(),
		SYNDrops:      i.synDrops.Load(),
		Refusals:      i.refusals.Load(),
		HandshakeCuts: i.handshakeCuts.Load(),
		Resets:        i.resets.Load(),
		Stalls:        i.stalls.Load(),
		FlakyFailures: i.flakyFailures.Load(),
		Datagrams:     i.datagrams.Load(),
		DgramDrops:    i.dgramDrops.Load(),
		DgramStalls:   i.dgramStalls.Load(),
	}
}

// Built-in profile mixes. Probabilities are tuned so that retried clients
// (resolver.WithRetry's default budget of 3 attempts) recover the large
// majority of faulted flows: the chaos suite asserts every experiment
// still completes under them.

// Mild is light residential packet loss: rare SYN drops and stalls.
func Mild() Profile {
	return Profile{
		SYNDrop:    0.02,
		Stall:      0.05,
		StallBase:  40 * time.Millisecond,
		DgramDrop:  0.02,
		DgramStall: 0.04,
	}
}

// Harsh is a badly lossy path: every fault class fires, including flaky
// backends that need one retry to reach.
func Harsh() Profile {
	return Profile{
		SYNDrop:      0.06,
		Refuse:       0.03,
		HandshakeCut: 0.03,
		Reset:        0.02,
		ResetWindow:  6,
		Stall:        0.10,
		StallBase:    80 * time.Millisecond,
		DgramDrop:    0.06,
		DgramStall:   0.08,
	}
}

// Flaky models cold backends: the first dial on every tuple is refused,
// after which the path is clean. Recovery statistics under it are exactly
// computable, which the chaos suite exploits.
func Flaky(n int) Profile {
	return Profile{FlakyFirstN: n}
}
