// Package dnsclient is the stub-resolver side of clear-text DNS: queries
// over UDP (the Internet's default) and over TCP (RFC 7766), the latter with
// explicit connection reuse — the baseline the paper compares DoT and DoH
// against ("we regard DNS/TCP as a reasonable baseline for clear-text DNS").
package dnsclient

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Errors surfaced to measurement code.
var (
	ErrIDMismatch = errors.New("dnsclient: response ID does not match query")
	ErrClosed     = errors.New("dnsclient: connection closed")
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

// Client issues clear-text DNS queries from a fixed vantage address.
type Client struct {
	World *netsim.World
	From  netip.Addr
	// Timeout is the real-time bound per transaction (protective only;
	// latency measurements use virtual time). Zero — the default — means
	// no bound: a wall-clock watchdog that fires on a slow host would
	// fail a query that succeeds on a fast one, and a query dropping out
	// of a campaign shifts medians, so results would depend on host
	// scheduling. Set it only when probing deadline behaviour itself.
	Timeout time.Duration
	// Retries is the number of additional UDP attempts on failure.
	Retries int
}

// New creates a client with sensible defaults.
func New(w *netsim.World, from netip.Addr) *Client {
	return &Client{World: w, From: from, Retries: 1}
}

// Deadline resolves a transaction's real-time guard: the earlier of the
// context deadline and now+timeout. Contexts carry cancellation across the
// client packages; the timeout field remains the per-transaction default. A
// timeout <= 0 disables the per-transaction guard entirely — only the
// context deadline (if any) applies, and the zero time.Time returned when
// the context has none means "no deadline" to the connection layer.
//
//doelint:clockboundary -- real-time watchdog only; it aborts a hung transaction and never enters simulated results
func Deadline(ctx context.Context, timeout time.Duration) time.Time {
	if timeout <= 0 {
		if cd, ok := ctx.Deadline(); ok {
			return cd
		}
		return time.Time{}
	}
	d := time.Now().Add(timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(d) {
		return cd
	}
	return d
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
	for attempt := 0; attempt <= c.Retries; attempt++ {
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
	return nil, fmt.Errorf("dnsclient: UDP query failed after %d attempts: %w", c.Retries+1, lastErr)
}

// QueryTCPContext performs a DNS-over-TCP lookup on a fresh connection,
// including connection setup in the reported latency.
func (c *Client) QueryTCPContext(ctx context.Context, server netip.Addr, name string, qtype dnswire.Type) (*Result, error) {
	conn, err := c.DialTCPContext(ctx, server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return conn.QueryContext(ctx, name, qtype)
}

// TCPConn is a reusable DNS-over-TCP connection. By default it is serial —
// safe for sequential use, one query in flight at a time. Pipeline upgrades
// it to an RFC 7766 pipelined session whose QueryContext is safe for
// concurrent use up to the chosen in-flight limit.
type TCPConn struct {
	mu   sync.Mutex
	mux  *Mux
	conn *netsim.Conn
	// ids generates this connection's transaction IDs without touching
	// the process-wide idSource lock.
	ids dnswire.IDGen
	// wbuf/rbuf are the connection's pooled scratch buffers, guarded by
	// mu like the connection itself and returned on Close.
	wbuf, rbuf *[]byte
	// established is the virtual time consumed before the first query
	// (TCP handshake).
	established time.Duration
	closed      bool
}

// DialTCPContext opens a reusable DNS-over-TCP connection to server:53.
func (c *Client) DialTCPContext(ctx context.Context, server netip.Addr) (*TCPConn, error) {
	return c.DialTCPPortContext(ctx, server, 53)
}

// DialTCPPortContext opens a reusable DNS-over-TCP connection to an
// arbitrary port, bounded by the context deadline if one is set.
func (c *Client) DialTCPPortContext(ctx context.Context, server netip.Addr, port uint16) (*TCPConn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnsclient: dial: %w", err)
	}
	conn, err := c.World.Dial(c.From, server, port)
	if err != nil {
		return nil, err
	}
	conn.SetDeadline(Deadline(ctx, c.Timeout))
	return TCPFromConn(conn), nil
}

// TCPFromConn wraps an already established stream (e.g. a SOCKS tunnel) as
// a DNS-over-TCP connection.
func TCPFromConn(conn *netsim.Conn) *TCPConn {
	return &TCPConn{
		conn:        conn,
		ids:         dnswire.NewIDGen(),
		wbuf:        bufpool.Get(512), //doelint:transfer -- owned by TCPConn; released in Close
		rbuf:        bufpool.Get(512), //doelint:transfer -- owned by TCPConn; released in Close
		established: conn.Elapsed(),
	}
}

// Pipeline upgrades the connection to a pipelined session with the given
// in-flight limit (limit <= 0 selects DefaultMaxInFlight) and returns its
// Mux. After Pipeline, QueryContext routes through the mux and is safe for
// concurrent use; callers wanting coalesced deterministic bursts use the
// Mux's Batch directly. Pipeline is idempotent — later calls return the
// existing mux regardless of limit.
func (t *TCPConn) Pipeline(limit int) *Mux {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.mux == nil && !t.closed {
		t.mux = NewMux(t.conn, t.conn, limit)
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
// reuse the connection's scratch buffers: pack and frame into wbuf, one
// write, read into rbuf, parse.
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
	if t.closed {
		return nil, ErrClosed
	}
	q := dnswire.NewQuery(t.ids.Next(), name, qtype)
	start := t.conn.Elapsed()
	out, err := dnswire.WriteMessageTCP(t.conn, q, *t.wbuf)
	*t.wbuf = out
	if err != nil {
		return nil, err
	}
	raw, err := dnswire.ReadTCPAppend(t.conn, (*t.rbuf)[:0])
	if err != nil {
		return nil, err
	}
	*t.rbuf = raw
	m, err := dnswire.Unpack(raw)
	if err != nil {
		return nil, err
	}
	if m.ID != q.ID {
		return nil, ErrIDMismatch
	}
	return &Result{Msg: m, Latency: t.conn.Elapsed() - start}, nil
}

// Close releases the connection.
func (t *TCPConn) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil
	}
	t.closed = true
	if t.mux != nil {
		t.mux.Close()
	}
	bufpool.Put(t.wbuf)
	bufpool.Put(t.rbuf)
	t.wbuf, t.rbuf = nil, nil
	return t.conn.Close()
}
