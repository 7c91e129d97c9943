// Package resolver presents every stream and QUIC transport the study
// measures — clear-text DNS over TCP, DoT (RFC 7858), DoH (RFC 8484) and DoQ
// (RFC 9250) — behind one Exchanger interface: a single DNS transaction
// under a context. The measurement code in internal/vantage and
// internal/core compares protocols side by side; giving all of them the
// same call shape keeps that comparison honest (the harness around each
// query is identical, only the transport differs) and lets the parallel
// campaign engine cancel any of them the same way.
//
// Transports own their transaction IDs: TCP and DoT pick fresh random IDs
// per exchange, DoH always sends ID 0 (RFC 8484 §4.1 cache friendliness).
// The ID on the message passed to Exchange is therefore advisory, and the
// returned message carries whatever ID the transport used.
//
// Sessions are dialed through one entry point, Dial, keyed by a Proto value
// and run over the Client's Dialer (direct, or through a proxy exit node). A
// dialed Session is the one way to reuse a connection (the amortized arm of
// §4.3); with WithMaxInFlight it pipelines (TCP/DoT, RFC 7766 §6.2.1) or
// multiplexes streams (DoH over HTTP/2, DoQ over QUIC), and Exchange may
// then be called from many goroutines at once. A Transport is the no-reuse
// arm: every Exchange dials a fresh session, queries once and closes it.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
)

// Exchanger is the unified client API: one DNS transaction, any transport.
type Exchanger interface {
	Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error)
}

// Session is an Exchanger bound to one connection, exposing the virtual-time
// accounting the performance experiments (§4.3) need: setup cost and total
// elapsed time, so per-query latency is the Elapsed delta around an
// Exchange.
//
// Exchange is safe for concurrent use. On a serial session concurrent calls
// queue on the connection; on a session dialed with WithMaxInFlight(n) up to
// n exchanges proceed in flight at once (further callers block until a slot
// frees). When the connection dies mid-exchange, every in-flight call fails
// with the cause, and every later call fails at once: a dead session is not
// redialed.
type Session interface {
	Exchanger
	Close() error
	// SetupLatency is the virtual time spent establishing the connection
	// (TCP handshake, plus TLS where the transport has one).
	SetupLatency() time.Duration
	// Elapsed is the total virtual time the connection has consumed.
	Elapsed() time.Duration
	// Batch sends names as one coalesced burst — one pipelined write (TCP,
	// DoT), one HTTP/2 burst (DoH), one QUIC flight (DoQ) — and appends the
	// answers to out in names order. The Elapsed delta around a Batch,
	// divided by len(names), is the amortized per-query latency of Fig. 9's
	// multiplexed column. TCP, DoT and DoH sessions batch only when dialed
	// with WithMaxInFlight; otherwise Batch fails with
	// dnsclient.ErrSerialBatch.
	Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error)
}

// ErrNoQuestion is returned when Exchange is handed a message without a
// question section.
var ErrNoQuestion = errors.New("resolver: message has no question")

// Question extracts the question a transport forwards: adapters delegate to
// the per-transport clients, which build their own wire messages.
func Question(msg *dnswire.Message) (string, dnswire.Type, error) {
	if msg == nil || len(msg.Questions) == 0 {
		return "", 0, ErrNoQuestion
	}
	return msg.Questions[0].Name, msg.Questions[0].Type, nil
}

// Proto selects a stream transport for Dial.
type Proto int

const (
	// ProtoTCP is clear-text DNS over TCP (server port 53).
	ProtoTCP Proto = iota
	// ProtoDoT is DNS over TLS, RFC 7858 (server port 853).
	ProtoDoT
	// ProtoDoH is DNS over HTTPS, RFC 8484 (server port 443).
	ProtoDoH
	// ProtoDoQ is DNS over Dedicated QUIC Connections, RFC 9250 (server
	// UDP port 853).
	ProtoDoQ
)

// protoNames is the single authority for protocol labels: Proto.String,
// telemetry labels and report column headers all read it, so a name can
// never drift between a metric and a report.
var protoNames = [...]string{
	ProtoTCP: "tcp",
	ProtoDoT: "dot",
	ProtoDoH: "doh",
	ProtoDoQ: "doq",
}

// String names the protocol the way telemetry labels do.
func (p Proto) String() string {
	if p >= 0 && int(p) < len(protoNames) {
		return protoNames[p]
	}
	return fmt.Sprintf("proto(%d)", int(p))
}

// Endpoint addresses a Dial target. Addr is required for every protocol;
// Template is consulted only by ProtoDoH (the URI template whose host is
// pinned to Addr).
type Endpoint struct {
	Addr     netip.Addr
	Template doh.Template
}

// Options collects the cross-transport knobs. The zero value is not useful;
// construct via New or NewVia, which apply defaults before the functional
// options.
type Options struct {
	// Profile selects the DoT usage profile (RFC 8310).
	Profile dot.Profile
	// Retry is the Transport attempt budget; the zero value disables
	// retries (one attempt per Exchange).
	Retry RetryPolicy
	// MaxInFlight, when positive, makes dialed sessions concurrent: TCP and
	// DoT sessions pipeline up to this many queries (RFC 7766 §6.2.1, with
	// out-of-order responses), DoH sessions negotiate HTTP/2 and multiplex
	// up to this many streams. Zero keeps the serial one-at-a-time sessions.
	MaxInFlight int
}

// Option mutates Options; see WithProfile, WithRetry, WithMaxInFlight.
type Option func(*Options)

// WithProfile selects the DoT usage profile (default Opportunistic, the
// paper's client-side choice). The zero Profile value is dot.Strict; pass it
// explicitly when strict authentication is wanted.
func WithProfile(p dot.Profile) Option { return func(o *Options) { o.Profile = p } }

// WithMaxInFlight allows up to n concurrent in-flight queries per dialed
// session (default 0 = serial sessions). n ≤ 0 restores serial behavior.
// See Options.MaxInFlight for what "in flight" means per protocol.
func WithMaxInFlight(n int) Option { return func(o *Options) { o.MaxInFlight = n } }

// Dialer opens the raw transports a Client's sessions ride on: a stream to
// addr:port, or a datagram path to addr:port returned as the function that
// exchanges one request for its response and virtual round-trip time (a
// doq.ExchangeFunc). New dials from a fixed address of a simulated world;
// a proxy.ExitDialer dials through one exit node of a proxy network.
type Dialer interface {
	DialStream(addr netip.Addr, port uint16) (*netsim.Conn, error)
	DialDatagram(addr netip.Addr, port uint16) (func(req []byte) ([]byte, time.Duration, error), error)
}

// worldDialer is New's Dialer: direct netsim dials from one address.
type worldDialer struct {
	w    *netsim.World
	from netip.Addr
}

func (d worldDialer) DialStream(addr netip.Addr, port uint16) (*netsim.Conn, error) {
	return d.w.Dial(d.from, addr, port)
}

func (d worldDialer) DialDatagram(addr netip.Addr, port uint16) (func(req []byte) ([]byte, time.Duration, error), error) {
	return func(req []byte) ([]byte, time.Duration, error) {
		return d.w.Exchange(d.from, addr, port, req)
	}, nil
}

// ports maps each protocol to its server port (DoQ's is a UDP port).
var ports = [...]uint16{ProtoTCP: 53, ProtoDoT: dot.Port, ProtoDoH: doh.Port, ProtoDoQ: doq.Port}

// Client builds Exchangers from one vantage point: every session opens
// through the Client's Dialer.
type Client struct {
	Roots *certs.TrustStore
	dial  Dialer
	opts  Options

	// doqOnce/doqCache lazily hold the client-wide DoQ resumption cache:
	// later dials within one Client (every Exchange of a Transport after
	// the first, a retry, or a later campaign pass) resume 0-RTT, the
	// amortization RFC 9250 inherits from TLS 1.3 session tickets.
	doqOnce  sync.Once
	doqCache *doq.SessionCache
}

// New returns a Client dialing directly from address from of world w, with
// study defaults adjusted by opts.
func New(w *netsim.World, from netip.Addr, roots *certs.TrustStore, opts ...Option) *Client {
	return NewVia(worldDialer{w, from}, roots, opts...)
}

// NewVia returns a Client whose sessions open through d — for example a
// proxy.ExitDialer, so every protocol runs from an exit node's vantage
// point.
func NewVia(d Dialer, roots *certs.TrustStore, opts ...Option) *Client {
	c := &Client{Roots: roots, dial: d, opts: Options{Profile: dot.Opportunistic}}
	for _, fn := range opts {
		fn(&c.opts)
	}
	return c
}

// Dial opens a session to ep over protocol p through the Client's Dialer,
// applying the Client's options: DoT profile and — when MaxInFlight is set
// — query pipelining (TCP, DoT), HTTP/2 stream multiplexing (DoH) or
// concurrent QUIC streams (DoQ). Every Dialer runs the same steps: open the
// raw transport, bound a stream by the context's deadline (no deadline when
// it has none), then run the protocol's handshake over it. Dialer errors
// come back unwrapped. The returned Session is safe for concurrent Exchange
// calls.
func (c *Client) Dial(ctx context.Context, p Proto, ep Endpoint) (Session, error) {
	if p < 0 || int(p) >= len(ports) {
		return nil, fmt.Errorf("resolver: unknown protocol %v", p)
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("resolver: dial %v: %w", p, err)
	}
	n := c.opts.MaxInFlight
	if p == ProtoDoQ {
		xchg, err := c.dial.DialDatagram(ep.Addr, ports[p])
		if err != nil {
			return nil, err
		}
		qc := doq.Client{Roots: c.Roots, Profile: c.opts.Profile, MaxInFlight: n, SessionCache: c.doqSessionCache()}
		conn, err := qc.DialVia(ctx, ep.Addr, xchg)
		if err != nil {
			return nil, err
		}
		return verifiedSession{session{conn}, conn}, nil
	}
	raw, err := c.dial.DialStream(ep.Addr, ports[p])
	if err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	raw.SetDeadline(deadline)
	switch p {
	case ProtoTCP:
		conn := dnsclient.TCPFromConn(raw)
		if n > 0 {
			conn.Pipeline(n)
		}
		return session{conn}, nil
	case ProtoDoT:
		dc := dot.Client{Roots: c.Roots, Profile: c.opts.Profile}
		conn, err := dc.DialConnContext(ctx, raw)
		if err != nil {
			return nil, err
		}
		if n > 0 {
			conn.Pipeline(n)
		}
		return verifiedSession{session{conn}, conn}, nil
	default: // ProtoDoH
		dc := doh.Client{Roots: c.Roots, MaxInFlight: n}
		conn, err := dc.DialConnContext(ctx, ep.Template, raw)
		if err != nil {
			return nil, err
		}
		return session{conn}, nil
	}
}

// Transport returns a Transport whose every Exchange dials a fresh session
// to ep over protocol p.
func (c *Client) Transport(p Proto, ep Endpoint) *Transport {
	return newTransport(c.opts.Retry, p.String(), func(ctx context.Context) (Session, error) {
		return c.Dial(ctx, p, ep)
	})
}

// doqSessionCache returns the Client's shared DoQ resumption cache.
func (c *Client) doqSessionCache() *doq.SessionCache {
	c.doqOnce.Do(func() { c.doqCache = doq.NewSessionCache() })
	return c.doqCache
}

// Transport is the no-reuse Exchanger, Table 7's arm of §4.3: every
// Exchange dials a fresh session, queries once and closes it, so every
// query pays connection setup. A RetryPolicy (WithRetry) gives each
// Exchange an attempt budget with exponential backoff charged to the
// virtual clock; each attempt dials its own session.
//
// Exchange, LastLatency and Stats are safe for concurrent use: concurrent
// Exchanges each dial their own session.
type Transport struct {
	dial  func(ctx context.Context) (Session, error)
	retry RetryPolicy
	// label names the protocol in telemetry ("tcp", "dot", "doh");
	// spanName is the precomputed "xchg:<label>" span title.
	label    string
	spanName string

	// mu guards the cached metric handles — never held across an exchange,
	// so concurrent Exchanges overlap freely. mc caches per-protocol metric
	// handles for the registry the transport last saw, so exchanges don't
	// re-render label strings.
	mu sync.Mutex
	mc metricSet

	// last is the virtual time the most recent Exchange consumed
	// (nanoseconds): its session's setup and query, and — under retries —
	// the cost of failed attempts plus backoff. Under concurrent
	// Exchanges, "most recent" means whichever call finished last.
	last  atomic.Int64
	stats transportStats
}

// transportStats is RetryStats with atomic fields, so concurrent Exchanges
// update counters without a lock.
type transportStats struct {
	attempts     atomic.Int64
	retries      atomic.Int64
	recovered    atomic.Int64
	hardFailures atomic.Int64
}

func (s *transportStats) snapshot() RetryStats {
	return RetryStats{
		Attempts:     int(s.attempts.Load()),
		Retries:      int(s.retries.Load()),
		Recovered:    int(s.recovered.Load()),
		HardFailures: int(s.hardFailures.Load()),
	}
}

func newTransport(retry RetryPolicy, label string, dial func(ctx context.Context) (Session, error)) *Transport {
	return &Transport{dial: dial, retry: retry, label: label, spanName: "xchg:" + label}
}

// metricSet holds the per-protocol instrument handles for one registry.
// All handles are nil-safe, so a nil registry yields a usable zero set.
// Handles are atomic instruments; the set is copied by value out of the
// cache so exchanges use it without holding t.mu.
type metricSet struct {
	reg       *obs.Registry
	attempts  *obs.Counter
	retries   *obs.Counter
	recovered *obs.Counter
	okTotal   *obs.Counter
	errTotal  *obs.Counter
	hard      *obs.Counter
	inflight  *obs.Gauge
	setup     *obs.Sketch
}

// metricsFor returns the handle set for ctx's registry, rebuilding the cache
// only when the registry changes.
func (t *Transport) metricsFor(ctx context.Context) metricSet {
	m := obs.Metrics(ctx)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mc.reg != m {
		t.mc = metricSet{
			reg:       m,
			attempts:  m.Counter("resolver_attempts_total", "proto", t.label),
			retries:   m.Counter("resolver_retries_total", "proto", t.label),
			recovered: m.Counter("resolver_recovered_total", "proto", t.label),
			okTotal:   m.Counter("resolver_exchanges_total", "proto", t.label, "outcome", "ok"),
			errTotal:  m.Counter("resolver_exchanges_total", "proto", t.label, "outcome", "error"),
			hard:      m.Counter("resolver_hard_failures_total", "proto", t.label),
			inflight:  m.VolatileGauge("resolver_inflight", "proto", t.label),
			setup:     m.Sketch("resolver_setup_latency", "proto", t.label),
		}
	}
	return t.mc
}

// Exchange performs one transaction on a fresh session, retrying per the
// retry policy. It may be called concurrently.
func (t *Transport) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	ctx, sp := obs.Start(ctx, t.spanName)
	mc := t.metricsFor(ctx)
	mc.inflight.Add(1)
	defer mc.inflight.Add(-1)
	budget := t.retry.Attempts
	if budget < 1 {
		budget = 1
	}
	var (
		resp *dnswire.Message
		err  error
		// penalty is the virtual time lost to failed attempts and backoff,
		// charged into last so latency accounting reflects the recovery.
		penalty  time.Duration
		attempts int
	)
	for attempt := 1; attempt <= budget; attempt++ {
		attempts = attempt
		t.stats.attempts.Add(1)
		mc.attempts.Add(1)
		if attempt > 1 {
			t.stats.retries.Add(1)
			mc.retries.Add(1)
			if sp != nil {
				sp.Event("retry:" + strconv.Itoa(attempt))
			}
			penalty += t.retry.backoffFor(attempt)
		}
		var cost time.Duration
		resp, cost, err = t.exchangeOnce(ctx, msg, mc)
		if err == nil {
			if attempt > 1 {
				t.stats.recovered.Add(1)
				mc.recovered.Add(1)
			}
			total := cost + penalty
			t.last.Store(int64(total))
			mc.okTotal.Add(1)
			obs.Charge(ctx, total)
			sp.SetInt("attempts", int64(attempt))
			return resp, nil
		}
		penalty += cost
		if ctx.Err() != nil {
			break
		}
	}
	t.stats.hardFailures.Add(1)
	t.last.Store(int64(penalty))
	mc.hard.Add(1)
	mc.errTotal.Add(1)
	obs.Charge(ctx, penalty)
	sp.SetInt("attempts", int64(attempts))
	sp.Fail(err)
	return nil, err
}

// exchangeOnce performs one attempt on a session dialed for it and reports
// the session's whole virtual cost (zero for failed dials).
func (t *Transport) exchangeOnce(ctx context.Context, msg *dnswire.Message, mc metricSet) (*dnswire.Message, time.Duration, error) {
	sess, err := t.dialSpanned(ctx, mc)
	if err != nil {
		return nil, 0, err
	}
	defer sess.Close()
	resp, err := sess.Exchange(ctx, msg)
	return resp, sess.Elapsed(), err
}

// dialSpanned dials a session under a "dial" child span charged with the
// connection's setup latency (TCP handshake + TLS where present), feeding
// the per-protocol setup-latency sketch.
func (t *Transport) dialSpanned(ctx context.Context, mc metricSet) (Session, error) {
	dsp := obs.CurrentSpan(ctx).Start("dial")
	sess, err := t.dial(ctx)
	if err != nil {
		dsp.Fail(err)
		return nil, err
	}
	dsp.Charge(sess.SetupLatency())
	mc.setup.Observe(sess.SetupLatency())
	return sess, nil
}

// Stats returns a snapshot of the attempt-level counters. Safe to call while
// Exchanges are in flight.
func (t *Transport) Stats() RetryStats {
	return t.stats.snapshot()
}

// LastLatency is the virtual time the most recent Exchange took: the whole
// dial-query-close cost. Safe to call while Exchanges are in flight; with
// several in flight, it reports whichever finished most recently.
func (t *Transport) LastLatency() time.Duration {
	return time.Duration(t.last.Load())
}
