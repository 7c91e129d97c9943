// Package dnsserver provides the server-side DNS building blocks of the
// study: a Handler abstraction shared by clear-text DNS, DoT and DoH
// front-ends, an authoritative zone (including the wildcard measurement
// zone whose uniquely prefixed names defeat caching), a forwarding recursive
// resolver with a TTL cache, and the misbehaving "dnsfilter-style" resolver
// that answers every query with a fixed address (§3.2).
package dnsserver

import (
	"bufio"
	"net/netip"
	"slices"
	"strings"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Handler answers one DNS query. proc is the virtual processing time the
// query cost the server (charged to the client's connection by the
// transport front-ends). req is only valid for the duration of the call:
// a front-end may reuse it for a later query, and every front-end in this
// package does — the stream loops parse each request into one Message per
// connection, and the datagram front-end into a pooled one — so a handler
// that needs to keep question data must copy it (Reply already copies the
// question section by value).
type Handler interface {
	ServeDNS(remote netip.Addr, req *dnswire.Message) (resp *dnswire.Message, proc time.Duration)
}

// HandlerFunc adapts a function to Handler.
type HandlerFunc func(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration)

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	return f(remote, req)
}

// Serve registers h as the clear-text DNS server on addr:53 of the world:
// DatagramHandler on UDP, and on TCP the DNS-over-TCP framing loop, which
// answers queries until the peer closes or an error occurs. Connection
// reuse — multiple queries per connection — falls out naturally, as RFC
// 7766 requires.
func Serve(w *netsim.World, addr netip.Addr, h Handler) {
	w.RegisterDatagram(addr, 53, DatagramHandler(h))
	w.RegisterStream(addr, 53, func(conn *netsim.Conn) {
		defer conn.Close()
		serveStreamRW(conn, conn, h)
	})
}

// rw is the minimal surface the stream loop needs, letting the TLS
// front-end reuse it with a *tls.Conn.
type rw interface {
	Read([]byte) (int, error)
	Write([]byte) (int, error)
}

// readers recycles serveStreamRW's 4096-byte buffered readers across
// connections. The size is fixed: it decides how much one read may buffer,
// and so when a response flushes.
var readers = sync.Pool{New: func() any { return bufio.NewReaderSize(nil, 4096) }}

// messages recycles the Messages that the datagram front-end decodes
// requests into and Resolver decodes upstream replies into. A pooled
// Message lives for one call: whatever outlives the call is copied out of
// it first, as Resolver clones the answers it caches.
var messages = sync.Pool{New: func() any { return new(dnswire.Message) }}

// serveStreamRW is the per-connection answer loop. It owns one pooled
// buffered reader, one pooled read buffer, one pooled write buffer and one
// reused request Message for the connection's lifetime, so answering a
// query in steady state allocates only what the handler itself builds.
//
// Pipelined clients (RFC 7766 §6.2.1.1) get coalesced responses: requests
// are drained through a buffered reader, and responses accumulate in the
// write buffer until no further request is already buffered, then leave in
// one Write. For a serial client each read buffers exactly one request, so
// every response still flushes immediately and the wire behaviour — and the
// virtual-clock charging — is unchanged.
//
//doelint:hotpath
func serveStreamRW(conn rw, raw *netsim.Conn, h Handler) {
	remote := raw.RemoteAddr().(netsim.Addr).IP
	rbuf := bufpool.Get(512)
	wbuf := bufpool.Get(512)
	defer bufpool.Put(rbuf)
	defer bufpool.Put(wbuf)
	req := new(dnswire.Message)
	br := readers.Get().(*bufio.Reader)
	br.Reset(conn)
	defer func() {
		br.Reset(nil) // a pooled reader must not pin the connection
		readers.Put(br)
	}()
	out := (*wbuf)[:0]
	for {
		msg, err := dnswire.ReadTCPAppend(br, (*rbuf)[:0])
		if err != nil {
			return
		}
		*rbuf = msg
		if err := dnswire.UnpackInto(req, msg); err != nil {
			// RFC 7766: a server receiving garbage should close.
			return
		}
		resp, proc := h.ServeDNS(remote, req)
		if resp == nil {
			return
		}
		raw.AddLatency(proc)
		out, err = resp.AppendPackTCP(out)
		*wbuf = out
		if err != nil {
			return
		}
		if br.Buffered() == 0 {
			if _, err := conn.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}
}

// ServeTLSStream runs Serve's DNS-over-TCP framing loop over a TLS-wrapped
// connection whose underlying netsim.Conn is raw (DoT, RFC 7858).
func ServeTLSStream(tlsConn rw, raw *netsim.Conn, h Handler) {
	serveStreamRW(tlsConn, raw, h)
}

// DatagramHandler adapts h to the netsim datagram interface (DNS over UDP).
func DatagramHandler(h Handler) netsim.DatagramHandler {
	return func(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
		return serveDatagram(h, from, req)
	}
}

// serveDatagram answers one datagram query. The request decodes into a
// pooled Message, which goes back to the pool once the response is packed.
//
//doelint:hotpath
func serveDatagram(h Handler, from netip.Addr, req []byte) ([]byte, time.Duration, error) {
	m := messages.Get().(*dnswire.Message)
	defer messages.Put(m)
	if err := dnswire.UnpackInto(m, req); err != nil {
		return nil, 0, err
	}
	resp, proc := h.ServeDNS(from, m)
	if resp == nil {
		return nil, 0, netsim.ErrBlackhole
	}
	packed, err := resp.Pack() //doelint:allow hotalloc -- the datagram reply leaves with the caller, who owns it
	if err != nil {
		return nil, 0, err
	}
	return packed, proc, nil
}

// Zone is an authoritative zone with optional wildcard synthesis for the
// measurement domain. It is safe for concurrent use.
type Zone struct {
	// Origin is the zone apex, e.g. "measure.example.org.".
	Origin string
	// WildcardA, when valid, makes the zone answer any name under Origin
	// with this address — the paper's uniquely-prefixed probe names
	// ("<nonce>.ourdomain") all resolve without pre-registration.
	WildcardA netip.Addr
	// Proc is the fixed authoritative processing time per query.
	Proc time.Duration

	mu          sync.RWMutex
	records     map[string]map[dnswire.Type][]dnswire.Record
	delegations []delegation
}

// NewZone creates an authoritative zone rooted at origin.
func NewZone(origin string) *Zone {
	return &Zone{
		Origin:  dnswire.CanonicalName(origin),
		records: make(map[string]map[dnswire.Type][]dnswire.Record),
		Proc:    time.Millisecond,
	}
}

// Add installs a record.
func (z *Zone) Add(name string, ttl uint32, data dnswire.RData) *Zone {
	name = dnswire.CanonicalName(name)
	z.mu.Lock()
	defer z.mu.Unlock()
	byType, ok := z.records[name]
	if !ok {
		byType = make(map[dnswire.Type][]dnswire.Record)
		z.records[name] = byType
	}
	t := data.RType()
	byType[t] = append(byType[t], dnswire.Record{
		Name: name, Class: dnswire.ClassINET, TTL: ttl, Data: data,
	})
	return z
}

// ServeDNS implements Handler.
func (z *Zone) ServeDNS(_ netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	resp := req.Reply()
	resp.Authoritative = true
	q := req.Question1()
	name := dnswire.CanonicalName(q.Name)

	if !dnswire.IsSubdomain(name, z.Origin) {
		resp.Rcode = dnswire.RcodeRefused
		return resp, z.Proc
	}
	z.mu.RLock()
	byType := z.records[name]
	deleg, delegated := z.referralFor(name)
	z.mu.RUnlock()

	// Names at or below a delegation point get a referral, not an answer
	// (unless the query is for the apex itself with data we hold).
	if delegated && name != dnswire.CanonicalName(z.Origin) {
		resp.Authoritative = false
		resp.Authorities = append(resp.Authorities, deleg.ns)
		if deleg.hasGlue {
			resp.Additionals = append(resp.Additionals, deleg.glue)
		}
		return resp, z.Proc
	}

	if rrs, ok := byType[q.Type]; ok {
		resp.Answers = append(resp.Answers, rrs...)
		return resp, z.Proc
	}
	if q.Type == dnswire.TypeA && z.WildcardA.IsValid() {
		resp.AddAnswer(name, 60, dnswire.A{Addr: z.WildcardA})
		return resp, z.Proc
	}
	if len(byType) > 0 {
		// Name exists with other types: NODATA.
		return resp, z.Proc
	}
	resp.Rcode = dnswire.RcodeNXDomain
	return resp, z.Proc
}

// Static answers every A query with a fixed address, the behaviour of
// subscription filtering resolvers like dnsfilter.com toward unknown
// clients ("constantly resolve arbitrary domain queries to a fixed IP").
type Static struct {
	Addr netip.Addr
	Proc time.Duration
}

// ServeDNS implements Handler.
func (s Static) ServeDNS(_ netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	resp := req.Reply()
	q := req.Question1()
	if q.Type == dnswire.TypeA {
		resp.AddAnswer(q.Name, 300, dnswire.A{Addr: s.Addr})
	}
	return resp, s.Proc
}

// ServFail answers every query with SERVFAIL.
type ServFail struct{}

// ServeDNS implements Handler.
func (ServFail) ServeDNS(_ netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	resp := req.Reply()
	resp.Rcode = dnswire.RcodeServFail
	return resp, time.Millisecond
}

// Resolver is a caching recursive resolver that forwards to authoritative
// servers over the simulated network. Its processing time per query is the
// (virtual) upstream round trip on cache misses plus a small constant.
type Resolver struct {
	World *netsim.World
	// Addr is the resolver's own address (source of upstream queries).
	Addr netip.Addr
	// Upstreams maps zone suffixes to authoritative server addresses; the
	// longest matching suffix wins. "." routes everything else.
	Upstreams map[string]netip.Addr
	// BaseProc is charged on every query (lookup, cache bookkeeping).
	BaseProc time.Duration
	// CacheLimit, when > 0, caps the number of cached entries: once full,
	// new answers are served but not inserted. This is only safe for
	// workloads whose query names are task-private (never re-queried) —
	// there a hit can never happen, so skipping insertion changes neither
	// answers nor latency. Million-vantage streaming campaigns set it to
	// keep resolver heap O(limit) instead of O(total queries); study
	// worlds leave it 0 (unbounded) because reused-name measurements
	// depend on hits.
	CacheLimit int

	cacheMu sync.Mutex
	cache   map[cacheKey]cacheEntry
}

// cacheKey names a cached answer: the lower-cased query name and type.
type cacheKey struct {
	name  string
	qtype dnswire.Type
}

// cacheEntry is a cached answer. Entries never expire: cache behavior must
// be a function of the query history alone, and a wall-clock TTL made hit
// vs miss depend on how slowly the host ran a campaign — on a loaded
// machine an entry could lapse mid-measurement and shift a latency median,
// breaking byte-identity across worker counts. Study worlds are short-lived
// and the campaigns keep probe names task-private, so an everlasting cache
// is both deterministic and faithful to the reused-name measurements.
type cacheEntry struct {
	answers []dnswire.Record
	rcode   dnswire.Rcode
}

// NewResolver creates a recursive resolver.
func NewResolver(w *netsim.World, addr netip.Addr, upstreams map[string]netip.Addr) *Resolver {
	canon := make(map[string]netip.Addr, len(upstreams))
	for suffix, a := range upstreams {
		canon[dnswire.CanonicalName(suffix)] = a
	}
	return &Resolver{
		World:     w,
		Addr:      addr,
		Upstreams: canon,
		BaseProc:  500 * time.Microsecond,
		cache:     make(map[cacheKey]cacheEntry),
	}
}

func (r *Resolver) upstreamFor(name string) (netip.Addr, bool) {
	name = dnswire.CanonicalName(name)
	best := ""
	var addr netip.Addr
	found := false
	for suffix, a := range r.Upstreams {
		if dnswire.IsSubdomain(name, suffix) && len(suffix) >= len(best) {
			best, addr, found = suffix, a, true
		}
	}
	return addr, found
}

// ServeDNS implements Handler. A miss decodes the upstream reply into a
// pooled Message, so the answers it caches are cloned out of it.
//
//doelint:hotpath
func (r *Resolver) ServeDNS(_ netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	q := req.Question1()
	key := cacheKey{strings.ToLower(q.Name), q.Type}
	proc := r.BaseProc

	r.cacheMu.Lock()
	entry, hit := r.cache[key]
	r.cacheMu.Unlock()

	resp := req.Reply() //doelint:allow hotalloc -- the response belongs to the caller
	if hit {
		resp.Rcode = entry.rcode
		resp.Answers = append(resp.Answers, entry.answers...)
		return resp, proc
	}

	upstream, ok := r.upstreamFor(q.Name)
	if !ok {
		resp.Rcode = dnswire.RcodeServFail
		return resp, proc
	}
	up := dnswire.NewQuery(dnswire.NewID(), q.Name, q.Type)
	packed, err := up.Pack() //doelint:allow hotalloc -- one exact-length upstream query per cache miss
	if err != nil {
		resp.Rcode = dnswire.RcodeServFail
		return resp, proc
	}
	raw, upElapsed, err := r.World.Exchange(r.Addr, upstream, 53, packed)
	if err != nil {
		resp.Rcode = dnswire.RcodeServFail
		return resp, proc + upElapsed
	}
	um := messages.Get().(*dnswire.Message)
	defer messages.Put(um)
	if err := dnswire.UnpackInto(um, raw); err != nil {
		resp.Rcode = dnswire.RcodeServFail
		return resp, proc + upElapsed
	}
	proc += upElapsed

	resp.Rcode = um.Rcode
	// Rewrite answer ownership onto our response (IDs differ upstream).
	resp.Answers = append(resp.Answers, um.Answers...)

	r.cacheMu.Lock()
	if r.CacheLimit <= 0 || len(r.cache) < r.CacheLimit {
		r.cache[key] = cacheEntry{
			answers: slices.Clone(um.Answers), //doelint:allow hotalloc -- a cache entry outlives the pooled reply it is cloned from
			rcode:   um.Rcode,
		}
	}
	r.cacheMu.Unlock()
	return resp, proc
}

// CacheLen reports the number of live cache entries (for tests).
func (r *Resolver) CacheLen() int {
	r.cacheMu.Lock()
	defer r.cacheMu.Unlock()
	return len(r.cache)
}
