package netsim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
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

// Policy actions. ActNext lets the next policy decide.
const (
	ActNext Action = iota
	ActAllow
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

// DialPolicy models an in-path middlebox consulted on every connection
// attempt, in registration order.
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
	listeners map[Addr]*Listener
	dgrams    map[Addr]*dgramService
	policies  []DialPolicy
	faults    FaultInjector

	seed int64

	// JitterFrac adds up to this fraction of extra delay per wait.
	JitterFrac float64

	ephemeral atomic.Uint32
}

type dgramService struct {
	handler DatagramHandler
}

// NewWorld creates an empty world with the built-in geography.
func NewWorld(seed int64) *World {
	return &World{
		Geo:        &geo.Registry{},
		RTT:        geo.NewRTTModel(),
		listeners:  make(map[Addr]*Listener),
		dgrams:     make(map[Addr]*dgramService),
		seed:       seed,
		JitterFrac: 0.10,
	}
}

// AddPolicy appends a middlebox policy; earlier policies win.
func (w *World) AddPolicy(p DialPolicy) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.policies = append(w.policies, p)
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

// Listen opens a net.Listener for ip:port, replacing any previous one.
func (w *World) Listen(ip netip.Addr, port uint16) (*Listener, error) {
	addr := Addr{IP: ip, Port: port}
	l := newListener(addr)
	w.mu.Lock()
	defer w.mu.Unlock()
	if old, ok := w.listeners[addr]; ok {
		old.Close()
	}
	w.listeners[addr] = l
	return l, nil
}

// RegisterStream runs handler in a goroutine for every connection accepted
// on ip:port.
func (w *World) RegisterStream(ip netip.Addr, port uint16, handler StreamHandler) {
	l, _ := w.Listen(ip, port)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go handler(c.(*Conn))
		}
	}()
}

// NumListeners reports how many stream services are currently installed.
// The lazy-world tests pin the streaming-campaign invariant with it:
// vantage-edge listeners in flight stay O(workers), never O(population).
func (w *World) NumListeners() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return len(w.listeners)
}

// CloseService removes the stream service on ip:port.
func (w *World) CloseService(ip netip.Addr, port uint16) {
	addr := Addr{IP: ip, Port: port}
	w.mu.Lock()
	defer w.mu.Unlock()
	if l, ok := w.listeners[addr]; ok {
		l.Close()
		delete(w.listeners, addr)
	}
}

// Close closes every stream listener, as CloseService does one at a time,
// so the accept loop RegisterStream started for each returns and a Dial to
// any of them is refused. Nothing else holds a goroutine for the world, so
// once its connections are closed a closed world can be collected. Close
// is idempotent.
func (w *World) Close() {
	w.mu.Lock()
	defer w.mu.Unlock()
	for addr, l := range w.listeners {
		l.Close()
		delete(w.listeners, addr)
	}
}

// RegisterDatagram installs a datagram service on ip:port.
func (w *World) RegisterDatagram(ip netip.Addr, port uint16, handler DatagramHandler) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.dgrams[Addr{IP: ip, Port: port}] = &dgramService{handler: handler}
}

// HasStream reports whether a stream service is registered on ip:port,
// ignoring policies. Tests and world builders use it; measurements must go
// through Dial.
func (w *World) HasStream(ip netip.Addr, port uint16) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	_, ok := w.listeners[Addr{IP: ip, Port: port}]
	return ok
}

// StreamAddrs returns every address with a service on port, in unspecified
// order. World builders use it to compile ground-truth lists.
func (w *World) StreamAddrs(port uint16) []netip.Addr {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var addrs []netip.Addr
	for a := range w.listeners {
		if a.Port == port {
			addrs = append(addrs, a.IP)
		}
	}
	return addrs
}

// flowRNG derives a connection's jitter stream from the flow tuple and the
// world seed alone, never from dial order: jitter is a property of the path,
// so concurrent dialers observe exactly the latencies a serial sweep would.
// Connections sharing a (from, to, port) tuple replay the same jitter
// stream, which is the price of schedule independence.
func (w *World) flowRNG(from, to netip.Addr, port uint16) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	binary.BigEndian.PutUint64(buf[:], uint64(w.seed))
	h.Write(buf[:])
	b, _ := from.MarshalBinary()
	h.Write(b)
	b, _ = to.MarshalBinary()
	h.Write(b)
	binary.BigEndian.PutUint64(buf[:], uint64(port))
	h.Write(buf[:])
	return rand.New(NewSource(int64(h.Sum64())))
}

func (w *World) decide(from, to netip.Addr, port uint16, proto Proto) Verdict {
	w.mu.RLock()
	policies := w.policies
	w.mu.RUnlock()
	for _, p := range policies {
		v := p.Decide(w, from, to, port, proto)
		if v.Action != ActNext {
			return v
		}
	}
	return Verdict{Action: ActAllow}
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
	var serve func(server *Conn)
	if v.Action == ActRedirect {
		serve = func(server *Conn) {
			// Handlers block on I/O, so they must not run on the
			// dialer's goroutine.
			go v.Handler(server, Addr{IP: to, Port: port})
		}
	} else {
		w.mu.RLock()
		l, ok := w.listeners[Addr{IP: to, Port: port}]
		w.mu.RUnlock()
		if !ok {
			return nil, ErrRefused
		}
		serve = func(server *Conn) {
			if err := l.deliver(server); err != nil {
				server.Close()
			}
		}
	}
	client, err := w.connectExtra(from, to, port, fault.ExtraLatency, serve)
	if err != nil {
		return nil, err
	}
	if fault.CutAfterSegments > 0 {
		client.armReset(fault.CutAfterSegments)
	}
	return client, nil
}

func (w *World) connect(from, to netip.Addr, port uint16, serve func(server *Conn)) (*Conn, error) {
	return w.connectExtra(from, to, port, 0, serve)
}

// connectExtra establishes the conn pair, charging connection setup (one
// RTT for the TCP three-way handshake, plus any in-path extra delay) to BOTH
// endpoint clocks
// before the server handler starts: establishment is experienced by both
// ends, and charging it up front keeps the peer's clock free of concurrent
// mutation once its goroutine is running.
func (w *World) connectExtra(from, to netip.Addr, port uint16, extra time.Duration, serve func(server *Conn)) (*Conn, error) {
	clientAddr := Addr{IP: from, Port: uint16(32768 + w.ephemeral.Add(1)%32768)}
	serverAddr := Addr{IP: to, Port: port}
	rtt := w.pathRTT(from, to)
	client, server := Pair(clientAddr, serverAddr, rtt, w.flowRNG(from, to, port), w.JitterFrac)
	setup := rtt + extra
	client.clk.add(setup)
	server.clk.add(setup)
	serve(server)
	return client, nil
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
	svc, ok := w.dgrams[Addr{IP: to, Port: port}]
	w.mu.RUnlock()
	if !ok {
		return nil, 0, ErrNoRoute
	}
	resp, proc, err := svc.handler(from, req)
	if err != nil {
		return nil, 0, err
	}
	return resp, w.pathRTT(from, to) + proc + fault.ExtraLatency, nil
}

// String summarizes the world for diagnostics.
func (w *World) String() string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return fmt.Sprintf("netsim.World{streams: %d, datagrams: %d, policies: %d}",
		len(w.listeners), len(w.dgrams), len(w.policies))
}
