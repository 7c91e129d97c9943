// Package dot implements DNS over TLS (RFC 7858): a server front-end on the
// dedicated port 853 and a client supporting the two usage profiles of
// RFC 8310 — Strict Privacy (authenticate or fail) and Opportunistic
// Privacy (best effort, proceed even if the server cannot be authenticated).
// The paper's reachability test issues Opportunistic DoT queries precisely
// to observe what interception does to unauthenticated sessions (§4.2).
package dot

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Port is the dedicated DoT port (RFC 7858 §3.1: servers MUST listen here).
const Port = 853

// Profile selects the RFC 8310 usage profile.
type Profile int

// Usage profiles.
const (
	// Opportunistic proceeds without authentication (and is what the
	// paper uses client-side, to observe interception in action).
	Opportunistic Profile = iota
	// Strict requires a verifiable server certificate.
	Strict
)

// String implements fmt.Stringer.
func (p Profile) String() string {
	if p == Strict {
		return "strict"
	}
	return "opportunistic"
}

// ErrAuthFailed is returned by Strict-profile dials when the server
// certificate cannot be verified.
var ErrAuthFailed = errors.New("dot: server authentication failed (strict profile)")

// ServerPadBlock is the response padding block size RFC 8467 recommends
// for DNS-over-Encryption servers.
const ServerPadBlock = 468

// Serve registers a DoT server on addr:853 of the world, terminating TLS
// with leaf and answering queries with h. extraProc is charged per query on
// top of h's own processing time (TLS record costs). Responses to queries
// that carried an EDNS(0) padding option are padded to 468-byte blocks, the
// RFC 8467 server policy.
func Serve(w *netsim.World, addr netip.Addr, leaf *certs.Leaf, h dnsserver.Handler, extraProc time.Duration) {
	cert := leaf.TLSCertificate()
	// One shared config: session-ticket keys must persist across
	// connections for TLS resumption to work.
	cfg := &tls.Config{Certificates: []tls.Certificate{cert}}
	w.RegisterStream(addr, Port, func(conn *netsim.Conn) {
		defer conn.Close()
		tc := tls.Server(conn, cfg)
		defer tc.Close()
		if err := tc.Handshake(); err != nil {
			return
		}
		wrapped := dnsserver.HandlerFunc(func(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
			resp, proc := h.ServeDNS(remote, req)
			if resp != nil {
				if opt, ok := req.OPT(); ok {
					if _, padded := opt.Padding(); padded {
						resp.SetEDNS0(opt.UDPSize, opt.DO)
						resp.PadToBlock(ServerPadBlock) //nolint:errcheck // best effort
					}
				}
			}
			return resp, proc + extraProc
		})
		dnsserver.ServeTLSStream(tc, conn, wrapped)
	})
}

// ServeNotDNS registers a port-853 listener that speaks TLS but errors on
// DNS queries — the vast population §3.2 finds with the port open but "not
// providing DoT" (getdns errors). If leaf is nil the listener just drops
// connections after accept, modeling non-TLS port-853 services.
func ServeNotDNS(w *netsim.World, addr netip.Addr, leaf *certs.Leaf) {
	w.RegisterStream(addr, Port, func(conn *netsim.Conn) {
		defer conn.Close()
		if leaf == nil {
			return
		}
		cert := leaf.TLSCertificate()
		tc := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
		defer tc.Close()
		if err := tc.Handshake(); err != nil {
			return
		}
		// Read whatever arrives and close without a DNS response.
		buf := make([]byte, 512)
		tc.Read(buf) //nolint:errcheck
	})
}

// Client issues DoT queries from a vantage address.
type Client struct {
	World *netsim.World
	From  netip.Addr
	// Roots is the trust store for verification (the study's simulated
	// Mozilla CA list).
	Roots *certs.TrustStore
	// Profile selects Strict or Opportunistic behaviour.
	Profile Profile
	// ServerName, when set, is additionally matched against the
	// certificate (authentication domain). The paper's scanner leaves it
	// empty: "we do not compare domain names ... only verify the
	// certificate paths", since DoT resolver names are unknown.
	ServerName string
	// Timeout is the real-time guard per operation. Zero — the default —
	// disables it; see dnsclient.Client.Timeout for why study transports
	// must not carry wall-clock deadlines.
	Timeout time.Duration
	// CryptoCost models per-query TLS record processing, charged to the
	// connection's virtual clock (the residual overhead the paper
	// observes on reused connections).
	CryptoCost time.Duration
	// Pad, when set, adds EDNS(0) padding to 128-byte blocks (RFC 8467).
	Pad bool
	// SessionCache enables TLS session resumption across Dials, the other
	// amortization lever RFC 7858 §3.4 points at alongside connection
	// reuse (Cloudflare's operational reports emphasize resumption).
	SessionCache tls.ClientSessionCache
}

// NewClient returns a Client with study defaults.
func NewClient(w *netsim.World, from netip.Addr, roots *certs.TrustStore, profile Profile) *Client {
	return &Client{
		World:      w,
		From:       from,
		Roots:      roots,
		Profile:    profile,
		CryptoCost: 2500 * time.Microsecond,
	}
}

// Conn is a reusable DoT session.
type Conn struct {
	mu     sync.Mutex
	mux    *dnsclient.Mux
	raw    *netsim.Conn
	tls    *tls.Conn
	client *Client
	closed bool
	// ids generates this session's transaction IDs without touching the
	// process-wide idSource lock.
	ids dnswire.IDGen
	// wbuf/rbuf are the session's pooled write and read scratch buffers,
	// guarded by mu like the connection itself and returned on Close.
	wbuf, rbuf *[]byte
	// setup is the virtual time consumed by TCP + TLS establishment.
	setup time.Duration
	// verifyErr records why path verification failed (nil when verified).
	// Under the Opportunistic profile the session proceeds regardless.
	verifyErr error
}

// Dial establishes a DoT session with server.
func (c *Client) Dial(server netip.Addr) (*Conn, error) {
	return c.DialContext(context.Background(), server)
}

// DialContext establishes a DoT session with server, bounded by the
// context deadline if one is set.
func (c *Client) DialContext(ctx context.Context, server netip.Addr) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dot: dial: %w", err)
	}
	raw, err := c.World.Dial(c.From, server, Port)
	if err != nil {
		return nil, err
	}
	return c.DialConnContext(ctx, raw)
}

// DialConnContext establishes a DoT session over an already connected
// stream (e.g. a SOCKS tunnel through a proxy network vantage point),
// bounded by the context deadline if one is set.
func (c *Client) DialConnContext(ctx context.Context, raw *netsim.Conn) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("dot: dial: %w", err)
	}
	raw.SetDeadline(dnsclient.Deadline(ctx, c.Timeout))

	conn := &Conn{
		raw:    raw,
		client: c,
		ids:    dnswire.NewIDGen(),
	}
	cfg := &tls.Config{
		InsecureSkipVerify: true, //nolint:gosec // verification done below per profile
		Time:               func() time.Time { return certs.RefTime },
		ClientSessionCache: c.SessionCache,
		VerifyPeerCertificate: func(rawCerts [][]byte, _ [][]*x509.Certificate) error {
			conn.verifyErr = c.verifyChain(rawCerts)
			if c.Profile == Strict && conn.verifyErr != nil {
				return conn.verifyErr
			}
			return nil
		},
	}
	tc := tls.Client(raw, cfg)
	if err := tc.Handshake(); err != nil {
		raw.Close()
		if conn.verifyErr != nil {
			return nil, fmt.Errorf("%w: %w", ErrAuthFailed, conn.verifyErr)
		}
		return nil, err
	}
	conn.tls = tc
	conn.setup = raw.Elapsed()
	// Acquired only after the handshake succeeds: every earlier return
	// leaves nothing to hand back to the pool.
	conn.wbuf = bufpool.Get(512) //doelint:transfer -- owned by Conn; released in Close
	conn.rbuf = bufpool.Get(512) //doelint:transfer -- owned by Conn; released in Close
	return conn, nil
}

// verifyChain performs path (and optional name) verification at RefTime.
// The chain stays raw: the trust store parses it only the first time it
// sees it.
func (c *Client) verifyChain(rawCerts [][]byte) error {
	if len(rawCerts) == 0 {
		return errors.New("dot: no certificate presented")
	}
	return c.Roots.Verify(rawCerts, c.ServerName)
}

// VerifyError reports the (path) verification outcome of the session; nil
// means the certificate verified.
func (conn *Conn) VerifyError() error { return conn.verifyErr }

// PeerCertificates returns the presented chain.
func (conn *Conn) PeerCertificates() []*x509.Certificate {
	return conn.tls.ConnectionState().PeerCertificates
}

// Resumed reports whether the TLS session was resumed from a cached ticket.
func (conn *Conn) Resumed() bool {
	return conn.tls.ConnectionState().DidResume
}

// SetupLatency is the virtual time spent on TCP + TLS establishment.
func (conn *Conn) SetupLatency() time.Duration { return conn.setup }

// Elapsed is the total virtual time consumed by the session so far.
func (conn *Conn) Elapsed() time.Duration { return conn.raw.Elapsed() }

// Pipeline upgrades the session to an RFC 7766 pipelined session with the
// given in-flight limit (limit <= 0 selects dnsclient.DefaultMaxInFlight)
// and returns its Mux. After Pipeline, QueryContext routes through the mux
// and is safe for concurrent use; the mux carries the session's per-query
// CryptoCost and RFC 8467 padding policy. Pipeline is idempotent — later
// calls return the existing mux regardless of limit.
func (conn *Conn) Pipeline(limit int) *dnsclient.Mux {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.mux == nil && !conn.closed {
		m := dnsclient.NewMux(conn.tls, conn.raw, limit)
		m.PerQueryCost = conn.client.CryptoCost
		if conn.client.Pad {
			m.PadBlock = 128
		}
		conn.mux = m
	}
	return conn.mux
}

// Query performs one DNS transaction on the session.
func (conn *Conn) Query(name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	return conn.QueryContext(context.Background(), name, qtype)
}

// QueryContext performs one DNS transaction on the session, checking ctx
// before the transaction starts. In steady state the transaction reuses the
// session's scratch buffers end to end: pack and frame into wbuf, one TLS
// write, read into rbuf, parse.
//
//doelint:hotpath
func (conn *Conn) QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	conn.mu.Lock()
	if m := conn.mux; m != nil {
		conn.mu.Unlock()
		return m.Exchange(ctx, name, qtype)
	}
	defer conn.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dot: query: %w", err)
	}
	if conn.closed {
		return nil, dnsclient.ErrClosed
	}
	q := dnswire.NewQuery(conn.ids.Next(), name, qtype)
	if conn.client.Pad {
		q.SetEDNS0(4096, false)
		if err := q.PadToBlock(128); err != nil { //doelint:allow hotalloc -- padding repacks the query for sizing; one pass per query by design
			return nil, err
		}
	}
	start := conn.raw.Elapsed()
	conn.raw.AddLatency(conn.client.CryptoCost)
	out, err := dnswire.WriteMessageTCP(conn.tls, q, *conn.wbuf)
	*conn.wbuf = out
	if err != nil {
		return nil, err
	}
	raw, err := dnswire.ReadTCPAppend(conn.tls, (*conn.rbuf)[:0])
	if err != nil {
		return nil, err
	}
	*conn.rbuf = raw
	m, err := dnswire.Unpack(raw)
	if err != nil {
		return nil, err
	}
	if m.ID != q.ID {
		return nil, dnsclient.ErrIDMismatch
	}
	return &dnsclient.Result{Msg: m, Latency: conn.raw.Elapsed() - start}, nil
}

// Close terminates the session.
func (conn *Conn) Close() error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.closed {
		return nil
	}
	conn.closed = true
	if conn.mux != nil {
		conn.mux.Close()
	}
	bufpool.Put(conn.wbuf)
	bufpool.Put(conn.rbuf)
	conn.wbuf, conn.rbuf = nil, nil
	conn.tls.Close()
	return conn.raw.Close()
}

// Query is the one-shot convenience: dial, query once, close. The reported
// latency includes connection establishment (the no-reuse case of §4.3).
func (c *Client) Query(server netip.Addr, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	return c.QueryContext(context.Background(), server, name, qtype)
}

// QueryContext is the one-shot convenience with cancellation: dial, query
// once, close.
func (c *Client) QueryContext(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	conn, err := c.DialContext(ctx, server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	res, err := conn.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	res.Latency = conn.Elapsed()
	return res, nil
}
