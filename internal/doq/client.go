package doq

import (
	"context"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
)

// ExchangeFunc sends one request datagram and returns the response, the
// virtual round-trip time, and an error. The direct path is a closure over
// World.Exchange; proxied vantage points substitute a relay that adds the
// proxy-leg latency, so the connection logic never knows the difference.
type ExchangeFunc func(req []byte) ([]byte, time.Duration, error)

// SessionCache remembers resumption tickets (and the handshake's
// verification outcome) per server, enabling 0-RTT dials.
type SessionCache struct {
	mu sync.Mutex
	m  map[netip.Addr]*cachedSession
}

type cachedSession struct {
	ticket    []byte
	verifyErr error
	certs     []*x509.Certificate
}

// NewSessionCache returns an empty resumption cache.
func NewSessionCache() *SessionCache {
	return &SessionCache{m: make(map[netip.Addr]*cachedSession)}
}

func (sc *SessionCache) get(server netip.Addr) *cachedSession {
	if sc == nil {
		return nil
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.m[server]
}

func (sc *SessionCache) put(server netip.Addr, cs *cachedSession) {
	if sc == nil {
		return
	}
	sc.mu.Lock()
	sc.m[server] = cs
	sc.mu.Unlock()
}

// cryptoCost models per-query QUIC packet-protection processing, charged
// to the connection's virtual clock per flight — the same record-layer
// residual the DoT client charges.
const cryptoCost = 2500 * time.Microsecond

// Client runs the DoQ handshake over a datagram path its caller opened
// (DialVia); resolver.Client.Dial is the one code path that opens study
// sessions. A zero Client with Roots set is complete.
type Client struct {
	// Roots is the trust store for verification (the study's simulated
	// Mozilla CA list).
	Roots *certs.TrustStore
	// Profile selects Strict or Opportunistic behaviour (RFC 9250 inherits
	// RFC 8310's usage profiles unchanged).
	Profile dot.Profile
	// MaxInFlight bounds concurrent streams per connection (<= 0 means 1).
	MaxInFlight int
	// SessionCache, when set, enables 0-RTT resumption across Dials.
	SessionCache *SessionCache
}

// Conn is a reusable DoQ session. Queries may be issued concurrently up to
// the client's MaxInFlight; each runs on its own QUIC stream.
type Conn struct {
	client *Client
	xchg   ExchangeFunc
	server netip.Addr

	scid [dnswire.QUICCIDLen]byte
	dcid [dnswire.QUICCIDLen]byte

	// sem bounds in-flight streams, the QUIC analog of the mux's
	// in-flight window.
	sem chan struct{}
	// nextStream allocates client-initiated bidirectional stream IDs
	// (0, 4, 8, ... — RFC 9000 §2.1).
	nextStream atomic.Uint64
	// elapsed accumulates the session's virtual time across flights.
	// Addition is commutative, so concurrent streams converge to the same
	// total under any goroutine schedule.
	elapsed atomic.Int64
	// established flips once a flight has been acknowledged; until then a
	// resumed connection keeps sending 0-RTT long headers carrying the
	// early-data hello.
	established atomic.Bool

	setup     time.Duration
	resumed   bool
	verifyErr error
	peerCerts []*x509.Certificate

	mu     sync.Mutex
	closed bool
}

// DialVia establishes a DoQ session whose flights travel through xchg
// (direct or relayed). With a cached session for server the dial is 0-RTT:
// no flight is sent, setup latency is zero, and the handshake rides the
// first query as early data. Otherwise one Initial/Handshake round trip
// verifies the server and seeds the cache.
func (c *Client) DialVia(ctx context.Context, server netip.Addr, xchg ExchangeFunc) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("doq: dial: %w", err)
	}
	conn := &Conn{client: c, xchg: xchg, server: server}
	ids := dnswire.NewIDGen()
	for i := 0; i < dnswire.QUICCIDLen; i += 2 {
		binary.BigEndian.PutUint16(conn.scid[i:], ids.Next())
	}
	inflight := c.MaxInFlight
	if inflight < 1 {
		inflight = 1
	}
	conn.sem = make(chan struct{}, inflight)

	if cs := c.SessionCache.get(server); cs != nil && (c.Profile != dot.Strict || cs.verifyErr == nil) {
		// 0-RTT resumption: the server CID is derivable without a round
		// trip, and verification state carries over from the full
		// handshake that minted the ticket.
		conn.resumed = true
		conn.verifyErr = cs.verifyErr
		conn.peerCerts = cs.certs
		conn.dcid = cidFor(conn.scid[:])
		return conn, nil
	}

	if err := conn.handshake(); err != nil {
		return nil, err
	}
	return conn, nil
}

// handshake runs the 1-RTT Initial/Handshake exchange: one flight carrying
// the client hello out, the certificate chain and resumption ticket back.
func (conn *Conn) handshake() error {
	c := conn.client
	wb := bufpool.Get(512)
	defer bufpool.Put(wb)
	buf, err := dnswire.AppendQUICHeader((*wb)[:0], dnswire.QUICHeader{
		Type: dnswire.QUICInitial, Version: dnswire.QUICVersion,
		DCID: conn.dcid[:], SCID: conn.scid[:],
	})
	if err != nil {
		return fmt.Errorf("doq: dial: %w", err)
	}
	hello := appendClientHello(nil, clientHello{alpn: helloALPN})
	buf, err = dnswire.AppendQUICFrame(buf, dnswire.QUICFrame{Type: dnswire.QUICFrameCrypto, Data: hello})
	if err != nil {
		return fmt.Errorf("doq: dial: %w", err)
	}
	*wb = buf

	resp, rtt, err := conn.xchg(buf)
	if err != nil {
		return fmt.Errorf("doq: dial: %w", err)
	}
	h, n, err := dnswire.ParseQUICHeader(resp)
	if err != nil || h.Type != dnswire.QUICHandshake {
		return fmt.Errorf("doq: dial: %w: unexpected response packet", ErrProtocol)
	}
	var sh serverHello
	sawHello := false
	for n < len(resp) {
		f, adv, err := dnswire.ParseQUICFrame(resp[n:])
		if err != nil {
			return fmt.Errorf("doq: dial: %w: %w", ErrProtocol, err)
		}
		n += adv
		switch f.Type {
		case dnswire.QUICFrameCrypto:
			if sh, err = parseServerHello(f.Data); err != nil {
				return fmt.Errorf("doq: dial: %w", err)
			}
			sawHello = true
		case dnswire.QUICFrameConnClose, dnswire.QUICFrameConnCloseApp:
			return fmt.Errorf("doq: dial: %w: connection refused by peer (code %d: %s)",
				ErrClosed, f.ErrorCode, f.Data)
		}
	}
	if !sawHello {
		return fmt.Errorf("doq: dial: %w: handshake carried no server hello", ErrProtocol)
	}
	copy(conn.dcid[:], h.SCID)

	conn.peerCerts = parseChain(sh.chain)
	conn.verifyErr = verifyServerChain(c.Roots, sh.chain, conn.peerCerts)
	if c.Profile == dot.Strict && conn.verifyErr != nil {
		return fmt.Errorf("%w: %w", ErrAuthFailed, conn.verifyErr)
	}
	conn.setup = rtt + cryptoCost
	conn.elapsed.Add(int64(conn.setup))
	conn.established.Store(true)
	c.SessionCache.put(conn.server, &cachedSession{
		ticket: append([]byte(nil), sh.ticket...), verifyErr: conn.verifyErr, certs: conn.peerCerts,
	})
	return nil
}

// verifyServerChain performs path verification at certs.RefTime, mirroring
// the DoT client's profile semantics; like the scanner's DoT probes, it
// matches no name, since DoQ resolver names are unknown. parsed is
// the prefix of rawCerts that parsed; the trust store verifies the raw
// chain, so a chain it has seen before is not parsed again.
func verifyServerChain(roots *certs.TrustStore, rawCerts [][]byte, parsed []*x509.Certificate) error {
	if len(rawCerts) == 0 {
		return errors.New("doq: no certificate presented")
	}
	if len(parsed) != len(rawCerts) {
		return errors.New("doq: unparseable certificate in chain")
	}
	return roots.Verify(rawCerts, "")
}

func parseChain(rawCerts [][]byte) []*x509.Certificate {
	chain := make([]*x509.Certificate, 0, len(rawCerts))
	for _, rc := range rawCerts {
		cert, err := x509.ParseCertificate(rc)
		if err != nil {
			return chain
		}
		chain = append(chain, cert)
	}
	return chain
}

// VerifyError reports the chain verification outcome (nil when verified).
func (conn *Conn) VerifyError() error { return conn.verifyErr }

// PeerCertificates returns the presented chain (from the live handshake,
// or the cached one on a resumed connection).
func (conn *Conn) PeerCertificates() []*x509.Certificate { return conn.peerCerts }

// Resumed reports whether the session was dialed 0-RTT from a cached
// ticket.
func (conn *Conn) Resumed() bool { return conn.resumed }

// SetupLatency is the virtual time the handshake consumed: one round trip
// plus cryptoCost for a fresh connection, zero for a resumed one (the
// handshake rides the first query flight as 0-RTT data).
func (conn *Conn) SetupLatency() time.Duration { return conn.setup }

// Elapsed is the total virtual time consumed by the session so far.
func (conn *Conn) Elapsed() time.Duration { return time.Duration(conn.elapsed.Load()) }

// Close tears the session down locally. The close is silent — no
// CONNECTION_CLOSE flight — matching the common client practice of letting
// the server's idle timer collect the connection; a goodbye datagram would
// also consume a fault-schedule draw and perturb every later flow.
func (conn *Conn) Close() error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	conn.closed = true
	return nil
}

func (conn *Conn) die() {
	conn.mu.Lock()
	conn.closed = true
	conn.mu.Unlock()
}

func (conn *Conn) isClosed() bool {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	return conn.closed
}

// acquire takes an in-flight slot, honouring ctx.
func (conn *Conn) acquire(ctx context.Context) error {
	select {
	case conn.sem <- struct{}{}:
		return nil
	default:
	}
	select {
	case conn.sem <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// appendFlightHeader starts a query flight's packet: a short header once
// established, else a 0-RTT long header still carrying the early-data
// hello (ticket included) so the server can admit the streams statelessly.
func (conn *Conn) appendFlightHeader(buf []byte) ([]byte, error) {
	if conn.established.Load() {
		return dnswire.AppendQUICHeader(buf, dnswire.QUICHeader{
			Type: dnswire.QUICOneRTT, DCID: conn.dcid[:],
		})
	}
	buf, err := dnswire.AppendQUICHeader(buf, dnswire.QUICHeader{
		Type: dnswire.QUICZeroRTT, Version: dnswire.QUICVersion,
		DCID: conn.dcid[:], SCID: conn.scid[:],
	})
	if err != nil {
		return nil, err
	}
	ticket := ticketFor(conn.server)
	hello := appendClientHello(nil, clientHello{alpn: helloALPN, ticket: ticket[:]})
	return dnswire.AppendQUICFrame(buf, dnswire.QUICFrame{Type: dnswire.QUICFrameCrypto, Data: hello})
}

// appendQuery packs one zero-ID query (RFC 9250 §4.2.1) as a FIN-bearing
// STREAM frame on sid. The query is framed into scratch (passed empty,
// returned grown so the caller can keep the backing for reuse) and copied
// into buf by AppendQUICFrame.
func appendQuery(buf, scratch []byte, sid uint64, name string, qtype dnswire.Type) (pkt, scr []byte, err error) {
	q := dnswire.NewQuery(0, name, qtype)
	framed, err := q.AppendPackTCP(scratch[:0])
	if err != nil {
		return nil, scratch, err
	}
	pkt, err = dnswire.AppendQUICFrame(buf, dnswire.QUICFrame{
		Type: dnswire.QUICFrameStream, StreamID: sid, Fin: true, Data: framed,
	})
	return pkt, framed, err
}

// flight sends one packet and demuxes the response frames by stream ID
// into out (keyed by sids). Any transport error or peer close kills the
// session: errors wrap ErrClosed so the resolver layer retries on a fresh
// connection.
//
//doelint:hotpath
func (conn *Conn) flight(pkt []byte, sids []uint64, out []*dnswire.Message) (time.Duration, error) {
	resp, rtt, err := conn.xchg(pkt)
	if err != nil {
		conn.die()
		return 0, fmt.Errorf("%w: %w", ErrClosed, err)
	}
	h, n, err := dnswire.ParseQUICHeader(resp)
	if err != nil {
		conn.die()
		return 0, fmt.Errorf("%w: %w", ErrClosed, err)
	}
	if h.Type != dnswire.QUICOneRTT || string(h.DCID) != string(conn.scid[:]) {
		conn.die()
		return 0, fmt.Errorf("%w: response for a different connection", ErrClosed)
	}
	answered := 0
	for n < len(resp) {
		f, adv, err := dnswire.ParseQUICFrame(resp[n:])
		if err != nil {
			conn.die()
			return 0, fmt.Errorf("%w: %w", ErrClosed, err)
		}
		n += adv
		switch f.Type {
		case dnswire.QUICFrameStream:
			for i, sid := range sids {
				if f.StreamID != sid || out[i] != nil {
					continue
				}
				if len(f.Data) < 2 || int(binary.BigEndian.Uint16(f.Data)) != len(f.Data)-2 {
					conn.die()
					return 0, fmt.Errorf("%w: bad response framing", ErrClosed)
				}
				m, err := dnswire.Unpack(f.Data[2:])
				if err != nil {
					conn.die()
					return 0, fmt.Errorf("%w: %w", ErrClosed, err)
				}
				if m.ID != 0 {
					conn.die()
					return 0, fmt.Errorf("%w: non-zero response message ID", ErrClosed)
				}
				out[i] = m
				answered++
			}
		case dnswire.QUICFrameConnClose, dnswire.QUICFrameConnCloseApp:
			conn.die()
			return 0, fmt.Errorf("%w: peer closed connection (code %d: %s)", ErrClosed, f.ErrorCode, f.Data)
		}
	}
	if answered != len(sids) {
		conn.die()
		return 0, fmt.Errorf("%w: response missing %d of %d streams", ErrClosed, len(sids)-answered, len(sids))
	}
	conn.established.Store(true)
	return rtt, nil
}

// Query issues one query on a fresh stream. See QueryContext.
func (conn *Conn) Query(name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	return conn.QueryContext(context.Background(), name, qtype)
}

// QueryContext issues one query on a fresh stream and waits for its
// response. Safe for concurrent use up to the client's MaxInFlight.
//
//doelint:hotpath
func (conn *Conn) QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := conn.acquire(ctx); err != nil {
		return nil, err
	}
	defer func() { <-conn.sem }()
	if conn.isClosed() {
		return nil, ErrClosed
	}
	sid := 4 * (conn.nextStream.Add(1) - 1)
	wb := bufpool.Get(512)
	defer bufpool.Put(wb)
	scratch := bufpool.Get(512)
	defer bufpool.Put(scratch)
	pkt, err := conn.appendFlightHeader((*wb)[:0])
	if err != nil {
		return nil, fmt.Errorf("doq: query: %w", err)
	}
	if pkt, *scratch, err = appendQuery(pkt, *scratch, sid, name, qtype); err != nil {
		return nil, fmt.Errorf("doq: query: %w", err)
	}
	*wb = pkt
	var answer [1]*dnswire.Message
	rtt, err := conn.flight(pkt, []uint64{sid}, answer[:])
	if err != nil {
		return nil, err
	}
	cost := rtt + cryptoCost
	conn.elapsed.Add(int64(cost))
	return &dnsclient.Result{Msg: answer[0], Latency: cost}, nil
}

// Batch issues len(names) queries as concurrent streams packed into a
// single flight — the DoQ analog of dnsclient.Mux.Batch — and appends the
// results to out in names order. The flight's single round trip is
// amortized evenly across the batch, so per-query latencies are
// deterministic regardless of worker scheduling.
func (conn *Conn) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	if len(names) == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return out, err
	}
	if err := conn.acquire(ctx); err != nil {
		return out, err
	}
	defer func() { <-conn.sem }()
	if conn.isClosed() {
		return out, ErrClosed
	}
	base := conn.nextStream.Add(uint64(len(names))) - uint64(len(names))
	sids := make([]uint64, len(names))
	for i := range names {
		sids[i] = 4 * (base + uint64(i))
	}
	wb := bufpool.Get(2048)
	defer bufpool.Put(wb)
	scratch := bufpool.Get(512)
	defer bufpool.Put(scratch)
	pkt, err := conn.appendFlightHeader((*wb)[:0])
	if err != nil {
		return out, fmt.Errorf("doq: batch: %w", err)
	}
	for i, name := range names {
		if pkt, *scratch, err = appendQuery(pkt, *scratch, sids[i], name, qtype); err != nil {
			return out, fmt.Errorf("doq: batch: %w", err)
		}
	}
	*wb = pkt
	answers := make([]*dnswire.Message, len(names))
	rtt, err := conn.flight(pkt, sids, answers)
	if err != nil {
		return out, err
	}
	per := rtt/time.Duration(len(names)) + cryptoCost
	conn.elapsed.Add(int64(rtt) + int64(cryptoCost)*int64(len(names)))
	for _, m := range answers {
		out = append(out, dnsclient.Result{Msg: m, Latency: per})
	}
	return out, nil
}
