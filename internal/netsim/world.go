package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsencryption.info/doe/internal/geo"
)

// Dial errors, distinguishable the way a measurement client distinguishes
// connection refusal from silence.
var (
	ErrRefused   = errors.New("netsim: connection refused")
	ErrBlackhole = &blackholeError{}
	ErrNoRoute   = errors.New("netsim: no such host/port")
)

type blackholeError struct{}

func (*blackholeError) Error() string   { return "netsim: i/o timeout (blackholed)" }
func (*blackholeError) Timeout() bool   { return true }
func (*blackholeError) Temporary() bool { return true }

// Proto distinguishes stream (TCP-like) from datagram (UDP-like) traffic for
// policy decisions.
type Proto int

// Protocols.
const (
	Stream Proto = iota
	Datagram
)

// Action is a middlebox decision about a connection attempt.
type Action int

// Policy actions. ActNext, the zero Action, decides nothing: the next
// middlebox on the path decides, and a flow that none decides reaches its
// destination.
const (
	ActNext Action = iota
	ActRefuse
	ActBlackhole
	ActRedirect // hand the stream to Verdict.Handler instead of the target
)

// Verdict is a policy decision.
type Verdict struct {
	Action  Action
	Handler RedirectHandler
}

// RedirectHandler serves a redirected stream. dst is the address the client
// believed it was connecting to.
type RedirectHandler func(conn *Conn, dst Addr)

// DialPolicy models an in-path middlebox. World.AddPolicy places it on
// client networks or on every path, and each connection attempt and
// datagram exchange along those paths consults it, in the order AddPolicy
// describes.
type DialPolicy interface {
	Decide(w *World, from, to netip.Addr, port uint16, proto Proto) Verdict
}

// PolicyFunc adapts a function to DialPolicy.
type PolicyFunc func(w *World, from, to netip.Addr, port uint16, proto Proto) Verdict

// Decide implements DialPolicy.
func (f PolicyFunc) Decide(w *World, from, to netip.Addr, port uint16, proto Proto) Verdict {
	return f(w, from, to, port, proto)
}

// StreamHandler serves one accepted connection.
type StreamHandler func(conn *Conn)

// DatagramHandler answers one datagram exchange. proc is the virtual
// server-side processing time to charge on top of the path RTT (cache hits
// are fast; recursive resolution to faraway nameservers is slow).
type DatagramHandler func(from netip.Addr, req []byte) (resp []byte, proc time.Duration, err error)

// DialFault describes faults injected into one stream dial attempt.
// The zero value is a clean dial.
type DialFault struct {
	// Drop loses the SYN: the dial fails like a blackhole (timeout).
	Drop bool
	// Refuse actively resets the SYN: the dial fails with ErrRefused.
	Refuse bool
	// ExtraLatency is a stall charged to the connection's virtual clock on
	// top of the handshake RTT (a loss/retransmission episode).
	ExtraLatency time.Duration
	// CutAfterSegments, when > 0, resets the connection in place of the
	// Nth segment the client would receive (1 = before any server data:
	// a truncated TLS handshake; larger = a mid-stream RST).
	CutAfterSegments int
}

// DatagramFault describes faults injected into one datagram exchange.
type DatagramFault struct {
	// Drop loses the datagram (or its response): the exchange times out.
	Drop bool
	// ExtraLatency inflates the exchange's virtual elapsed time.
	ExtraLatency time.Duration
}

// FaultInjector decides, per flow, which faults to inject. Implementations
// MUST be deterministic functions of their own seed, the flow tuple and
// per-tuple attempt history — never of wall-clock time or of dial order
// across different tuples — or report byte-identity across worker counts
// breaks. Policies win over faults: refused/blackholed verdicts are never
// consulted, while allowed and redirected flows are.
type FaultInjector interface {
	StreamFault(from, to netip.Addr, port uint16) DialFault
	DatagramFault(from, to netip.Addr, port uint16) DatagramFault
}

// World is the simulated Internet.
type World struct {
	Geo *geo.Registry
	RTT *geo.RTTModel

	mu        sync.RWMutex
	streams   map[Addr]StreamHandler
	dgrams    map[Addr]DatagramHandler
	networks  geo.Table[[]DialPolicy] // middleboxes on client networks
	everyPath []DialPolicy            // middleboxes on every path
	faults    FaultInjector

	seed int64

	// JitterFrac adds up to this fraction of extra delay per wait.
	JitterFrac float64

	ephemeral atomic.Uint32
}

// NewWorld creates an empty world with the built-in geography.
func NewWorld(seed int64) *World {
	return &World{
		Geo:        &geo.Registry{},
		RTT:        geo.NewRTTModel(),
		streams:    make(map[Addr]StreamHandler),
		dgrams:     make(map[Addr]DatagramHandler),
		seed:       seed,
		JitterFrac: 0.10,
	}
}

// AddPolicy installs middlebox p on the client networks clients, the way
// port filters, devices squatting on 1.1.1.1 and TLS interceptors sit in a
// client's own access network; with no prefixes it sits on every path, as
// national censorship does. A flow meets the middleboxes of the networks
// covering its source first, the nearest (longest prefix) first, and then
// those on every path; within one network, and on every path, it meets
// them in the order they were added. The first verdict other than ActNext
// decides the flow, so a middlebox on a network that does not cover the
// source is never consulted.
func (w *World) AddPolicy(p DialPolicy, clients ...netip.Prefix) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(clients) == 0 {
		w.everyPath = append(w.everyPath, p)
		return
	}
	for _, c := range clients {
		ps, _ := w.networks.Get(c)
		w.networks.Set(c, append(ps, p))
	}
}

// SetFaults installs inj as the world's fault-injection layer (nil
// disables it, the default). Faults compose with policies: a policy
// verdict of Refuse/Blackhole wins, everything the policies let through —
// including redirected (intercepted) flows — is subject to faults.
func (w *World) SetFaults(inj FaultInjector) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.faults = inj
}

func (w *World) faultInjector() FaultInjector {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.faults
}

// RegisterStream installs handler as the stream service on ip:port,
// replacing any previous one. Every connection a dial opens to ip:port runs
// handler in a goroutine of its own, which the dial starts, so an idle
// service holds no goroutine.
func (w *World) RegisterStream(ip netip.Addr, port uint16, handler StreamHandler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.streams[Addr{IP: ip, Port: port}] = handler
}

// NumListeners reports how many stream services are currently installed.
// The lazy-world tests pin the streaming-campaign invariant with it:
// vantage-edge services in flight stay O(workers), never O(population).
func (w *World) NumListeners() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.streams)
}

// CloseService removes the stream service on ip:port, so later dials to it
// are refused; connections it already serves are unaffected. A dial looks
// the service up before it starts the handler, so a dial racing
// CloseService on the same address may still be served by the removed
// handler. No study path closes a service while dialing it: scan rounds
// switch services between sweeps, and a campaign releases a node after its
// lookups.
func (w *World) CloseService(ip netip.Addr, port uint16) {
	w.mu.Lock()
	defer w.mu.Unlock()
	delete(w.streams, Addr{IP: ip, Port: port})
}

// Close removes every stream service, as CloseService does one at a time,
// so a Dial to any of them is refused. Services hold no goroutines, so
// once its connections are closed a closed world can be collected. Close
// is idempotent.
func (w *World) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	clear(w.streams)
}

// RegisterDatagram installs a datagram service on ip:port.
func (w *World) RegisterDatagram(ip netip.Addr, port uint16, handler DatagramHandler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dgrams[Addr{IP: ip, Port: port}] = handler
}

// stream returns the handler of the stream service on dst, or nil.
func (w *World) stream(dst Addr) StreamHandler {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.streams[dst]
}

// flowSeeds derives a connection's two jitter seeds, client->server
// first, from the flow tuple and the world seed alone, never from dial
// order: jitter is a property of the path, so concurrent dialers observe
// exactly the latencies a serial sweep would. Connections sharing a (from,
// to, port) tuple replay the same jitter streams, which is the price of
// schedule independence. The seeds are the first two Int63 draws of the
// source seeded with the FNV-1a 64 hash of the world seed, both addresses
// as MarshalBinary spells them and the port, each integer as 8 big-endian
// bytes. Hashing inline, into a source on the stack, keeps a dial free of
// allocations.
func (w *World) flowSeeds(from, to netip.Addr, port uint16) (ab, ba int64) {
	var n [8]byte
	binary.BigEndian.PutUint64(n[:], uint64(w.seed))
	h := fnv1a(fnvOffset, n[:])
	h = fnvAddr(fnvAddr(h, from), to)
	binary.BigEndian.PutUint64(n[:], uint64(port))
	h = fnv1a(h, n[:])
	var src lazySource
	src.Seed(int64(h))
	return src.Int63(), src.Int63()
}

// FNV-1a 64's offset basis and prime, as hash/fnv has them.
const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fnv1a folds b into the FNV-1a 64 hash h.
func fnv1a[B []byte | string](h uint64, b B) uint64 {
	for i := 0; i < len(b); i++ {
		h = (h ^ uint64(b[i])) * fnvPrime
	}
	return h
}

// fnvAddr folds a into h as a.MarshalBinary() spells it: no bytes for the
// zero Addr, 4 for IPv4, and otherwise 16 followed by the zone.
func fnvAddr(h uint64, a netip.Addr) uint64 {
	switch {
	case a.Is4():
		b := a.As4()
		return fnv1a(h, b[:])
	case a.Is6():
		b := a.As16()
		return fnv1a(fnv1a(h, b[:]), a.Zone())
	}
	return h
}

// decide returns the verdict of the middleboxes on the path from `from`, in
// AddPolicy's order. It gathers them under the read lock and consults them
// outside it, so a policy may call back into the world.
func (w *World) decide(from, to netip.Addr, port uint16, proto Proto) Verdict {
	var buf [4][]DialPolicy // a source sits in few nested client networks
	scopes := buf[:0]
	w.mu.RLock()
	w.networks.Walk(from, func(ps []DialPolicy) bool {
		scopes = append(scopes, ps)
		return true
	})
	scopes = append(scopes, w.everyPath)
	w.mu.RUnlock()
	for _, ps := range scopes {
		for _, p := range ps {
			if v := p.Decide(w, from, to, port, proto); v.Action != ActNext {
				return v
			}
		}
	}
	return Verdict{}
}

// pathRTT returns the modeled round-trip time between two addresses.
func (w *World) pathRTT(from, to netip.Addr) time.Duration {
	ms := w.RTT.RTTMillis(w.Geo.Country(from), w.Geo.Country(to))
	return time.Duration(ms * float64(time.Millisecond))
}

// PathRTT exposes the modeled round-trip time between two addresses, so
// relays (the proxy platforms' datagram legs) can compose multi-hop latency
// without opening a stream.
func (w *World) PathRTT(from, to netip.Addr) time.Duration { return w.pathRTT(from, to) }

// Dial opens a stream from the client address `from` to `to:port`,
// traversing middlebox policies. The returned Conn's Elapsed already
// includes the connection-establishment RTT.
func (w *World) Dial(from, to netip.Addr, port uint16) (*Conn, error) {
	v := w.decide(from, to, port, Stream)
	switch v.Action {
	case ActRefuse:
		return nil, ErrRefused
	case ActBlackhole:
		return nil, ErrBlackhole
	}
	// Deliberate middlebox verdicts above win over the fault layer; flows
	// the policies let through — allowed or redirected — are as lossy as
	// the injector says the path is.
	var fault DialFault
	if inj := w.faultInjector(); inj != nil {
		fault = inj.StreamFault(from, to, port)
	}
	switch {
	case fault.Drop:
		return nil, ErrBlackhole
	case fault.Refuse:
		return nil, ErrRefused
	}
	dst := Addr{IP: to, Port: port}
	var handler StreamHandler
	if v.Action == ActRedirect {
		handler = func(server *Conn) { v.Handler(server, dst) }
	} else if handler = w.stream(dst); handler == nil {
		return nil, ErrRefused
	}
	client := w.connect(from, dst, fault.ExtraLatency, handler)
	if fault.CutAfterSegments > 0 {
		client.armReset(fault.CutAfterSegments)
	}
	return client, nil
}

// connect establishes the conn pair for a stream from `from` to dst and
// starts handler on the server end, in a goroutine of its own: handlers
// block on I/O, so they must not run on the dialer's goroutine. Connection
// setup (one RTT for the TCP three-way handshake, plus any in-path extra
// delay) is charged to BOTH endpoint clocks before the handler starts:
// establishment is experienced by both ends, and charging it up front keeps
// the peer's clock free of concurrent mutation once its goroutine is
// running.
func (w *World) connect(from netip.Addr, dst Addr, extra time.Duration, handler StreamHandler) *Conn {
	clientAddr := Addr{IP: from, Port: uint16(32768 + w.ephemeral.Add(1)%32768)}
	rtt := w.pathRTT(from, dst.IP)
	var ab, ba int64
	if w.JitterFrac > 0 {
		ab, ba = w.flowSeeds(from, dst.IP, dst.Port)
	}
	client, server := newPair(clientAddr, dst, rtt, w.JitterFrac, ab, ba)
	setup := rtt + extra
	client.AddLatency(setup)
	server.AddLatency(setup)
	go handler(server)
	return client
}

// Exchange performs one datagram round trip (UDP-like). It returns the
// response payload and the virtual elapsed time.
func (w *World) Exchange(from, to netip.Addr, port uint16, req []byte) ([]byte, time.Duration, error) {
	v := w.decide(from, to, port, Datagram)
	switch v.Action {
	case ActRefuse:
		return nil, 0, ErrRefused
	case ActBlackhole:
		return nil, 0, ErrBlackhole
	}
	var fault DatagramFault
	if inj := w.faultInjector(); inj != nil {
		fault = inj.DatagramFault(from, to, port)
	}
	if fault.Drop {
		return nil, 0, ErrBlackhole
	}
	w.mu.RLock()
	handler, ok := w.dgrams[Addr{IP: to, Port: port}]
	w.mu.RUnlock()
	if !ok {
		return nil, 0, ErrNoRoute
	}
	resp, proc, err := handler(from, req)
	if err != nil {
		return nil, 0, err
	}
	return resp, w.pathRTT(from, to) + proc + fault.ExtraLatency, nil
}

// String summarizes the world for diagnostics.
func (w *World) String() string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return fmt.Sprintf("netsim.World{streams: %d, datagrams: %d, every-path policies: %d}",
		len(w.streams), len(w.dgrams), len(w.everyPath))
}
