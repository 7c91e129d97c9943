package dnsclient

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// DefaultMaxInFlight is the in-flight query limit a pipelined session uses
// when its owner does not pick one. RFC 7766 sets no protocol limit; 64
// keeps the transaction-ID collision probability negligible (64/65536 per
// draw) while covering every batch size the study issues.
const DefaultMaxInFlight = 64

// Framing is how one wire format carries a session's queries and replies
// on a stream. Three implement it: RFC 7766 length prefixes tagged by DNS
// transaction ID, for DNS over TCP and DoT; HTTP/1.1 requests, every one
// tagged 0, for serial DoH; and HTTP/2 HEADERS/DATA tagged by odd stream
// ID, for multiplexed DoH (package doh). TCPConn runs any of them serially,
// and its Mux runs any whose tags tell replies apart.
type Framing interface {
	// NextTag draws the tag of the next query. The Mux calls it under its
	// write lock and redraws a tag that is still in flight.
	NextTag() uint32
	// AppendQuery appends the query for (name, qtype), tagged tag, to wb.
	// Its error fails that query alone.
	AppendQuery(wb []byte, tag uint32, name string, qtype dnswire.Type) ([]byte, error)
	// ReadReply blocks for the next whole reply, reading into buf's
	// capacity, and returns buf — grown if need be — for the next read.
	// Its error ends the session; a failure of one query rides in
	// Reply.Err instead. awaited reports whether a tag is still in flight,
	// so a framing that reassembles replies keeps state for those alone;
	// TCPConn's serial exchange, with one query in flight, passes nil, so
	// a framing that consults it runs only under a Mux.
	ReadReply(buf []byte, awaited func(tag uint32) bool) (Reply, []byte, error)
}

// Reply is one tagged reply: the response, or the error that fails its
// query alone.
type Reply struct {
	Tag uint32
	Msg *dnswire.Message
	Err error
}

// Mux is the one multiplexing engine behind the stream transports: many
// queries in flight on one connection, replies matched to queries by tag
// rather than by arrival order (RFC 7766 §6.2.1.1 pipelining for TCP and
// DoT, RFC 7540 streams for DoH). The Framing decides what a tag is and
// how queries and replies look on the wire; everything else is here.
//
// Concurrency contract: Exchange and Batch are safe for concurrent use by
// any number of goroutines; at most the configured in-flight limit of
// queries is outstanding at once, and further callers block. One demux
// reader goroutine — started lazily with the first query — owns the read
// side of the stream: it takes each reply off the framing, computes that
// query's virtual-clock latency ((clock at reply read) − (clock at query
// write)), and parks the result in the query's rendezvous slot. Tags are
// drawn under the write lock and re-drawn on collision with the in-flight
// table, so a reply can match exactly one slot.
//
// Failure rules: a framing error (a query that cannot be framed, a reply
// the framing fails alone) fails its own query, and the session lives on.
// Only a read or write error is fatal: every in-flight query fails with it
// (ErrClosed when the session was closed locally) and later queries fail
// immediately. Nothing redials a dead session.
type Mux struct {
	f     Framing
	w     io.Writer
	clock *netsim.Conn
	cost  time.Duration
	limit int
	sem   chan struct{}

	// Write side, serialized by wmu: tag draws, framing, the per-query
	// clock charge, and the Write call itself. wbuf is nil once Close has
	// run.
	wmu  sync.Mutex
	wbuf *[]byte

	// Demux state, guarded by mu. Rendezvous slots are recycled through a
	// free list so steady-state pipelined exchanges allocate no channels.
	mu       sync.Mutex
	inflight map[uint32]*muxPending
	free     *muxPending
	dead     error
	started  bool
}

// muxPending is one query's rendezvous slot.
type muxPending struct {
	ch    chan muxDelivery // buffered, capacity 1: the reader never blocks
	tag   uint32
	start time.Duration // virtual clock when the query was written
	next  *muxPending   // free list
}

type muxDelivery struct {
	msg *dnswire.Message
	lat time.Duration
	err error
}

// newMux runs the engine over an established stream. f frames queries and
// reads replies; w carries the framed queries (the netsim.Conn itself for
// clear-text TCP, the tls.Conn for DoT and DoH); clock is the connection
// whose virtual clock the session reads and charges, cost per query before
// its bytes go out. limit <= 0 selects DefaultMaxInFlight.
func newMux(f Framing, w io.Writer, clock *netsim.Conn, cost time.Duration, limit int) *Mux {
	if limit <= 0 {
		limit = DefaultMaxInFlight
	}
	return &Mux{
		f:        f,
		w:        w,
		clock:    clock,
		cost:     cost,
		limit:    limit,
		sem:      make(chan struct{}, limit),
		wbuf:     bufpool.Get(2048), //doelint:transfer -- owned by Mux; released in Close; sized for a coalesced Batch
		inflight: make(map[uint32]*muxPending, limit),
	}
}

// MaxInFlight reports the session's in-flight query limit.
func (m *Mux) MaxInFlight() int { return m.limit }

// acquire takes n in-flight slots, honouring ctx while blocked; on error it
// holds none.
func (m *Mux) acquire(ctx context.Context, n int) error {
	for i := 0; i < n; i++ {
		select {
		case m.sem <- struct{}{}:
		case <-ctx.Done():
			m.release(i)
			return fmt.Errorf("dnsclient: pipelined query: %w", ctx.Err())
		}
	}
	return nil
}

func (m *Mux) release(n int) {
	for ; n > 0; n-- {
		<-m.sem
	}
}

// getSlotLocked pops a rendezvous slot off the free list; callers hold m.mu.
func (m *Mux) getSlotLocked() *muxPending {
	if p := m.free; p != nil {
		m.free = p.next
		p.next = nil
		return p
	}
	return &muxPending{ch: make(chan muxDelivery, 1)} //doelint:allow hotalloc -- slots are recycled through the free list; steady state allocates none
}

// putSlot recycles a drained slot.
func (m *Mux) putSlot(p *muxPending) {
	m.mu.Lock()
	p.next = m.free
	m.free = p
	m.mu.Unlock()
}

// register draws a free tag and arms an in-flight slot stamped with start;
// callers hold m.wmu. It also starts the demux reader on first use, once
// there is a reply to wait for.
func (m *Mux) register(start time.Duration) (*muxPending, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.dead != nil {
		return nil, m.dead
	}
	var tag uint32
	for redraw := 0; ; redraw++ {
		tag = m.f.NextTag()
		if _, taken := m.inflight[tag]; !taken {
			break
		}
		// With in-flight bounded far below the tag space a free tag is
		// found almost immediately; the bound only guards against a broken
		// generator.
		if redraw > 1024 {
			return nil, fmt.Errorf("dnsclient: tag space exhausted")
		}
	}
	p := m.getSlotLocked()
	p.tag, p.start = tag, start
	m.inflight[tag] = p
	if !m.started {
		m.started = true
		go m.readLoop()
	}
	return p, nil
}

// deregister removes tag from the in-flight table. It reports false when
// the reader already claimed the slot — in that case a delivery is
// guaranteed to be buffered in the slot's channel, because the reader
// completes the send while holding m.mu.
func (m *Mux) deregister(tag uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, mine := m.inflight[tag]; !mine {
		return false
	}
	delete(m.inflight, tag)
	return true
}

// awaited reports whether tag is in flight.
func (m *Mux) awaited(tag uint32) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.inflight[tag]
	return ok
}

// send writes names as one burst: each query is tagged, framed and charged
// its per-query cost, the rendezvous slot slots[i] is armed for names[i]
// with the clock at burst start, and one Write carries them all. Callers
// hold len(names) in-flight slots. A nil error means every rendezvous slot
// will receive a delivery — a write error reaches them through fail. An
// error (the session closed or dead, or a query the framing rejects) means
// nothing was written and no rendezvous slot stays armed.
//
//doelint:hotpath
func (m *Mux) send(names []string, qtype dnswire.Type, slots []*muxPending) error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.wbuf == nil {
		return ErrClosed
	}
	start := m.clock.Elapsed()
	wb := (*m.wbuf)[:0]
	for i, name := range names {
		p, err := m.register(start)
		if err == nil {
			slots[i] = p
			wb, err = m.f.AppendQuery(wb, p.tag, name, qtype)
		}
		if err != nil {
			m.disarm(slots[:i+1])
			return err
		}
		m.clock.AddLatency(m.cost)
	}
	*m.wbuf = wb
	if _, err := m.w.Write(wb); err != nil {
		m.fail(err)
	}
	return nil
}

// disarm withdraws slots armed by a burst that was never written. A slot
// the reader or fail claimed meanwhile holds a buffered delivery and is
// left to the garbage collector.
func (m *Mux) disarm(slots []*muxPending) {
	for _, p := range slots {
		if p != nil && m.deregister(p.tag) {
			m.putSlot(p)
		}
	}
}

// wait blocks for the slot's delivery, honouring ctx. It releases the
// caller's in-flight slot and recycles the rendezvous slot.
//
//doelint:hotpath
func (m *Mux) wait(ctx context.Context, p *muxPending) (*Result, error) {
	var d muxDelivery
	select {
	case d = <-p.ch:
	case <-ctx.Done():
		if m.deregister(p.tag) {
			// The reader never saw this query's reply: nothing can be
			// delivered any more, so the slot is clean for reuse.
			m.putSlot(p)
			m.release(1)
			return nil, fmt.Errorf("dnsclient: pipelined query: %w", ctx.Err())
		}
		// The reader beat the cancellation; its delivery is buffered.
		d = <-p.ch
	}
	m.putSlot(p)
	m.release(1)
	if d.err != nil {
		return nil, d.err
	}
	return &Result{Msg: d.msg, Latency: d.lat}, nil
}

// Exchange issues one query on the session and waits for its reply. Safe
// for concurrent use; blocks while the session is at its in-flight limit.
//
//doelint:hotpath
func (m *Mux) Exchange(ctx context.Context, name string, qtype dnswire.Type) (*Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnsclient: pipelined query: %w", err)
	}
	if err := m.acquire(ctx, 1); err != nil {
		return nil, err
	}
	names := [1]string{name}
	var slots [1]*muxPending
	if err := m.send(names[:], qtype, slots[:]); err != nil {
		m.release(1)
		return nil, err
	}
	return m.wait(ctx, slots[0])
}

// Batch issues len(names) queries as one coalesced burst — every query is
// framed back-to-back and written in a single Write, the client-side
// response to RFC 7766 §6.2.1.1's segment-coalescing advice — then collects
// all replies, returning results in query order (the demux layer absorbs
// any reordering). The burst counts len(names) against the in-flight limit.
//
// Batches are the deterministic face of multiplexing: one goroutine writes
// the whole burst before the server can observe any of it, so virtual-clock
// stamps never depend on goroutine scheduling. Every query is stamped at
// batch start — the burst shares one segment and its replies one coalesced
// segment — so each latency is the whole batch round trip, including every
// per-query clock charge, and the session's Elapsed delta around a Batch
// divided by len(names) is the amortized per-query latency the Fig. 9
// "multiplexed" column reports.
func (m *Mux) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []Result) ([]Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnsclient: pipelined batch: %w", err)
	}
	if len(names) > m.limit {
		return nil, fmt.Errorf("dnsclient: batch of %d exceeds in-flight limit %d", len(names), m.limit)
	}
	if err := m.acquire(ctx, len(names)); err != nil {
		return nil, err
	}
	slots := make([]*muxPending, len(names))
	if err := m.send(names, qtype, slots); err != nil {
		m.release(len(names))
		return nil, err
	}
	out = out[:0]
	var firstErr error
	for _, p := range slots {
		res, err := m.wait(ctx, p)
		if err != nil {
			if firstErr == nil {
				firstErr = err
			}
			out = append(out, Result{})
			continue
		}
		out = append(out, *res)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// readLoop is the session's demux reader: it owns the stream's read side
// and its pooled scratch, takes each reply off the framing, and delivers it
// — with the per-query virtual latency computed here, where the clock
// advance of the read is observable — to the matching rendezvous slot.
// Replies to queries abandoned by cancellation are dropped. It exits on the
// first fatal framing error, failing every in-flight query.
//
//doelint:hotpath
func (m *Mux) readLoop() {
	scratch := bufpool.Get(512)
	defer bufpool.Put(scratch)
	awaited := m.awaited
	for {
		r, buf, err := m.f.ReadReply(*scratch, awaited)
		*scratch = buf
		if err != nil {
			m.fail(err)
			return
		}
		now := m.clock.Elapsed()
		m.mu.Lock()
		if p := m.inflight[r.Tag]; p != nil {
			delete(m.inflight, r.Tag)
			// Send while holding mu: the channel has capacity 1 and exactly
			// one sender, so this never blocks, and deregister observing a
			// missing entry can rely on the delivery being buffered.
			p.ch <- muxDelivery{msg: r.Msg, lat: now - p.start, err: r.Err}
		}
		m.mu.Unlock()
	}
}

// fail marks the session dead and delivers err to every in-flight query.
func (m *Mux) fail(err error) {
	m.mu.Lock()
	if m.dead == nil {
		m.dead = err
	} else {
		err = m.dead
	}
	for tag, p := range m.inflight {
		delete(m.inflight, tag)
		p.ch <- muxDelivery{err: err}
	}
	m.mu.Unlock()
}

// Close fails all in-flight queries with ErrClosed and rejects later ones
// with it. It does not close the underlying stream: the session owner
// does, which also unblocks the demux reader.
func (m *Mux) Close() error {
	m.wmu.Lock()
	defer m.wmu.Unlock()
	if m.wbuf == nil {
		return nil
	}
	bufpool.Put(m.wbuf)
	m.wbuf = nil
	m.fail(ErrClosed)
	return nil
}
