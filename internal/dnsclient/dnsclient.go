// Package dnsclient is the stub-resolver side of clear-text DNS: queries
// over UDP (the Internet's default) and over TCP (RFC 7766), the latter with
// explicit connection reuse — the baseline the paper compares DoT and DoH
// against ("we regard DNS/TCP as a reasonable baseline for clear-text DNS").
//
// It is also the one stream-session engine of the encrypted transports:
// TCPConn carries DoT's length-prefixed queries over TLS as it carries
// clear-text TCP's, and DoH's HTTP/1.1 requests and HTTP/2 streams through
// the same Framing seam; Mux pipelines or multiplexes any of them.
package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Errors surfaced to measurement code.
var (
	ErrIDMismatch  = errors.New("dnsclient: response ID does not match query")
	ErrClosed      = errors.New("dnsclient: connection closed")
	ErrSerialBatch = errors.New("dnsclient: batch needs a pipelined session")
)

// Result is one completed DNS transaction.
type Result struct {
	Msg *dnswire.Message
	// Latency is the virtual time the transaction took, as a client
	// would measure it.
	Latency time.Duration
}

// Rcode is shorthand for the response code.
func (r *Result) Rcode() dnswire.Rcode { return r.Msg.Rcode }

// FirstA returns the first A answer, if any.
func (r *Result) FirstA() (netip.Addr, bool) { return r.Msg.FirstA() }

// Client issues clear-text DNS queries over UDP from a fixed vantage
// address. Stream sessions (TCP, and DoT and DoH over it) are opened by
// resolver.Client.Dial; TCPFromConn, NewTCPConn and NewFramedConn run them
// over the stream it dials.
type Client struct {
	World *netsim.World
	From  netip.Addr
}

// udpRetries is the number of additional UDP attempts on failure.
const udpRetries = 1

// New creates a client querying from address from of world w.
func New(w *netsim.World, from netip.Addr) *Client {
	return &Client{World: w, From: from}
}

// QueryUDPContext performs a DNS-over-UDP lookup, honouring ctx between
// retry attempts.
func (c *Client) QueryUDPContext(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type) (*Result, error) {
	q := dnswire.NewQuery(dnswire.NewID(), name, qtype)
	packed, err := q.Pack()
	if err != nil {
		return nil, err
	}
	var lastErr error
	for attempt := 0; attempt <= udpRetries; attempt++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("dnsclient: UDP query: %w", err)
		}
		raw, elapsed, err := c.World.Exchange(c.From, server, 53, packed)
		if err != nil {
			lastErr = err
			continue
		}
		m, err := dnswire.Unpack(raw)
		if err != nil {
			lastErr = err
			continue
		}
		if m.ID != q.ID {
			lastErr = ErrIDMismatch
			continue
		}
		return &Result{Msg: m, Latency: elapsed}, nil
	}
	return nil, fmt.Errorf("dnsclient: UDP query failed after %d attempts: %w", udpRetries+1, lastErr)
}

// TCPConn is a reusable DNS session over one stream, in any Framing: RFC
// 7766 length prefixes over clear-text TCP or a DoT session's TLS, or DoH's
// HTTP/1.1 and HTTP/2 over TLS (package doh). By default it is serial —
// safe for sequential use, one query in flight at a time. Pipeline upgrades
// it to a pipelined session whose QueryContext is safe for concurrent use up
// to the chosen in-flight limit.
type TCPConn struct {
	mu   sync.Mutex
	mux  *Mux
	conn *netsim.Conn
	cost time.Duration
	// rw is the stream: queries are written to it and Close closes it. f
	// reads the replies, from rw itself or from its own reader over it; dns
	// holds f for the RFC 7766 framing, so a DNS session needs no second
	// allocation.
	rw  io.ReadWriteCloser
	f   Framing
	dns dnsFraming
	// buf is the connection's pooled scratch, guarded by mu like the
	// connection itself and returned on Close. A serial exchange frames its
	// query into it and reads the reply into it: the stream has copied the
	// query by the time Write returns.
	buf *[]byte
	// established is the virtual time consumed before the first query
	// (TCP handshake, and TLS's for DoT and DoH).
	established time.Duration
	// dead is why the session ended, nil while it lives: ErrClosed after
	// Close, or a Write or ReadReply error of the serial exchange, which
	// leaves the stream in an unknown state, wrapped with ErrClosed. Later
	// queries fail with it and write nothing.
	dead error
}

// TCPFromConn wraps an already established stream (e.g. a SOCKS tunnel) as
// a clear-text DNS-over-TCP connection.
func TCPFromConn(conn *netsim.Conn) *TCPConn {
	return NewTCPConn(conn, conn, 0)
}

// NewTCPConn wraps rw, a stream carrying RFC 7766 length-prefixed DNS
// messages (conn itself for clear-text TCP, a tls.Conn over it for DoT), as
// a session. See NewFramedConn for conn and cost.
func NewTCPConn(rw io.ReadWriteCloser, conn *netsim.Conn, cost time.Duration) *TCPConn {
	t := &TCPConn{dns: dnsFraming{stream: rw, ids: dnswire.NewIDGen()}}
	return t.start(&t.dns, rw, conn, cost)
}

// NewFramedConn runs a session in framing f over rw, the established
// stream its queries are written to. conn is the netsim connection beneath
// rw, whose virtual clock the session reads and charges: each query costs
// cost before its bytes go out, and the clock at construction is the
// session's SetupLatency. Close closes rw, then conn.
func NewFramedConn(f Framing, rw io.ReadWriteCloser, conn *netsim.Conn, cost time.Duration) *TCPConn {
	return new(TCPConn).start(f, rw, conn, cost)
}

func (t *TCPConn) start(f Framing, rw io.ReadWriteCloser, conn *netsim.Conn, cost time.Duration) *TCPConn {
	t.f, t.rw, t.conn, t.cost = f, rw, conn, cost
	t.buf = bufpool.Get(512) //doelint:transfer -- owned by TCPConn; released in Close
	t.established = conn.Elapsed()
	return t
}

// Pipeline upgrades the connection to a pipelined session with the given
// in-flight limit (limit <= 0 selects DefaultMaxInFlight) and returns its
// Mux, which carries the session's framing and per-query cost. After
// Pipeline, QueryContext routes through the mux and is safe for concurrent
// use, and Batch sends coalesced deterministic bursts. Pipeline is
// idempotent — later calls return the existing mux regardless of limit.
func (t *TCPConn) Pipeline(limit int) *Mux {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mux == nil && t.dead == nil {
		t.mux = newMux(t.f, t.rw, t.conn, t.cost, limit)
	}
	return t.mux
}

// SetupLatency is the virtual time spent establishing the connection.
func (t *TCPConn) SetupLatency() time.Duration { return t.established }

// Elapsed is the total virtual time the connection has consumed.
func (t *TCPConn) Elapsed() time.Duration { return t.conn.Elapsed() }

// Query sends one query on the (possibly reused) connection. Latency covers
// only this transaction, as observed on an already open connection.
func (t *TCPConn) Query(name string, qtype dnswire.Type) (*Result, error) {
	return t.QueryContext(context.Background(), name, qtype)
}

// QueryContext sends one query on the (possibly reused) connection,
// checking ctx before the transaction starts. Steady-state transactions
// reuse the connection's scratch buffer: frame into it, one write, read into
// it, parse. A reply the framing fails alone (Reply.Err) fails this query
// and leaves the session usable; a write or framing error ends it.
//
//doelint:hotpath
func (t *TCPConn) QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*Result, error) {
	t.mu.Lock()
	if m := t.mux; m != nil {
		t.mu.Unlock()
		return m.Exchange(ctx, name, qtype)
	}
	defer t.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnsclient: query: %w", err)
	}
	if t.dead != nil {
		return nil, t.dead
	}
	id := t.f.NextTag()
	start := t.conn.Elapsed()
	wb, err := t.f.AppendQuery((*t.buf)[:0], id, name, qtype)
	if err != nil {
		return nil, err
	}
	*t.buf = wb
	t.conn.AddLatency(t.cost)
	if _, err := t.rw.Write(wb); err != nil {
		return nil, t.fail(err)
	}
	r, rb, err := t.f.ReadReply(wb, nil)
	*t.buf = rb
	if err != nil {
		return nil, t.fail(err)
	}
	if r.Err != nil {
		return nil, r.Err
	}
	if r.Tag != id {
		return nil, ErrIDMismatch
	}
	return &Result{Msg: r.Msg, Latency: t.conn.Elapsed() - start}, nil
}

// fail ends the serial session on err and returns err for the query that
// met it. Called with t.mu held.
func (t *TCPConn) fail(err error) error {
	t.dead = fmt.Errorf("%w: %w", ErrClosed, err)
	return err
}

// Batch issues names as one coalesced burst on a pipelined session; see
// Mux.Batch. A serial session has no burst to coalesce into: Batch fails
// with ErrSerialBatch until Pipeline has run. Once the session has ended,
// Batch fails with the reason.
func (t *TCPConn) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []Result) ([]Result, error) {
	t.mu.Lock()
	m, dead := t.mux, t.dead
	t.mu.Unlock()
	if dead != nil {
		return out, dead
	}
	if m == nil {
		return out, ErrSerialBatch
	}
	return m.Batch(ctx, names, qtype, out)
}

// Close releases the connection.
func (t *TCPConn) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.dead == ErrClosed {
		return nil
	}
	t.dead = ErrClosed
	if t.mux != nil {
		t.mux.Close()
	}
	bufpool.Put(t.buf)
	t.buf = nil
	t.rw.Close()
	return t.conn.Close()
}

// dnsFraming is the RFC 7766 Framing of a TCPConn's stream: each message
// carries a 2-byte length prefix and is tagged by its DNS transaction ID,
// drawn from the session's own IDGen.
type dnsFraming struct {
	stream io.Reader
	ids    dnswire.IDGen
}

func (f *dnsFraming) NextTag() uint32 { return uint32(f.ids.Next()) }

//doelint:hotpath
func (f *dnsFraming) AppendQuery(wb []byte, tag uint32, name string, qtype dnswire.Type) ([]byte, error) {
	return dnswire.NewQuery(uint16(tag), name, qtype).AppendPackTCP(wb)
}

// ReadReply reads one length-prefixed message. A message that does not
// parse has no ID to match, so it ends the session. The RFC 7766 framing
// keeps no reassembly state and ignores awaited.
//
//doelint:hotpath
func (f *dnsFraming) ReadReply(buf []byte, _ func(uint32) bool) (Reply, []byte, error) {
	raw, err := dnswire.ReadTCPAppend(f.stream, buf[:0])
	if err != nil {
		return Reply{}, buf, err
	}
	msg, err := dnswire.Unpack(raw)
	if err != nil {
		return Reply{}, raw, err
	}
	return Reply{Tag: uint32(msg.ID), Msg: msg}, raw, nil
}
