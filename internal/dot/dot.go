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
	"time"

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

// cryptoCost models per-query TLS record processing, charged to the
// session's virtual clock (the residual overhead the paper observes on
// reused connections).
const cryptoCost = 2500 * time.Microsecond

// Serve registers a DoT server on addr:853 of the world, terminating TLS
// with leaf and answering queries with h. extraProc is charged per query on
// top of h's own processing time (TLS record costs).
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
	var cfg *tls.Config // one per listener, as in Serve
	if leaf != nil {
		cfg = &tls.Config{Certificates: []tls.Certificate{leaf.TLSCertificate()}}
	}
	w.RegisterStream(addr, Port, func(conn *netsim.Conn) {
		defer conn.Close()
		if cfg == nil {
			return
		}
		tc := tls.Server(conn, cfg)
		defer tc.Close()
		if err := tc.Handshake(); err != nil {
			return
		}
		// Read whatever arrives and close without a DNS response.
		buf := make([]byte, 512)
		tc.Read(buf) //nolint:errcheck
	})
}

// Client runs the DoT handshake over a stream its caller dialed
// (DialConnContext); resolver.Client.Dial is the one code path that opens
// study sessions. World and From serve only Dial and DialContext.
type Client struct {
	World *netsim.World
	From  netip.Addr
	// Roots is the trust store for verification (the study's simulated
	// Mozilla CA list).
	Roots *certs.TrustStore
	// Profile selects Strict or Opportunistic behaviour. Verification
	// checks the certificate path only: "we do not compare domain names
	// ... only verify the certificate paths", since DoT resolver names are
	// unknown.
	Profile Profile
	// SessionCache enables TLS session resumption across Dials, the other
	// amortization lever RFC 7858 §3.4 points at alongside connection
	// reuse (Cloudflare's operational reports emphasize resumption).
	SessionCache tls.ClientSessionCache
}

// NewClient returns a Client that dials from address from of world w.
func NewClient(w *netsim.World, from netip.Addr, roots *certs.TrustStore, profile Profile) *Client {
	return &Client{World: w, From: from, Roots: roots, Profile: profile}
}

// Conn is a reusable DoT session: a TLS handshake and its certificate
// evidence over a dnsclient.TCPConn, which carries the queries (serial, or
// pipelined after Pipeline) with the per-query cryptoCost, and closes the
// session.
type Conn struct {
	*dnsclient.TCPConn
	tls *tls.Conn
	// verifyErr records why path verification failed (nil when verified).
	// Under the Opportunistic profile the session proceeds regardless.
	verifyErr error
}

// Dial establishes a DoT session with server.
func (c *Client) Dial(server netip.Addr) (*Conn, error) {
	return c.DialContext(context.Background(), server)
}

// DialContext dials server:853 from the client's address and establishes a
// DoT session over it, bounded by the context deadline if one is set.
func (c *Client) DialContext(ctx context.Context, server netip.Addr) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dot: dial: %w", err)
	}
	raw, err := c.World.Dial(c.From, server, Port)
	if err != nil {
		return nil, err
	}
	deadline, _ := ctx.Deadline()
	raw.SetDeadline(deadline)
	return c.DialConnContext(ctx, raw)
}

// DialConnContext establishes a DoT session over an already connected
// stream (a direct dial or a SOCKS tunnel through a proxy network vantage
// point), whose deadline the caller has set. It closes raw on failure.
func (c *Client) DialConnContext(ctx context.Context, raw *netsim.Conn) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("dot: dial: %w", err)
	}

	conn := &Conn{}
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
	conn.TCPConn = dnsclient.NewTCPConn(tc, raw, cryptoCost)
	conn.tls = tc
	return conn, nil
}

// verifyChain performs path verification at RefTime. The chain stays raw:
// the trust store parses it only the first time it sees it.
func (c *Client) verifyChain(rawCerts [][]byte) error {
	if len(rawCerts) == 0 {
		return errors.New("dot: no certificate presented")
	}
	return c.Roots.Verify(rawCerts, "")
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
