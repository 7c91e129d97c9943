// Package netsim simulates the Internet the study measures: IPv4 hosts
// offering stream and datagram services, a per-country latency model, and
// the in-path middleboxes the paper encounters (censorship, TLS
// interception, devices squatting on resolver addresses).
//
// Connections are in-memory full-duplex pipes over which real protocol
// stacks run (crypto/tls handshakes, net/http servers). Latency is
// *virtual*: each endpoint of a connection carries its own virtual clock;
// a write is stamped with an arrival time of the sender's clock + RTT/2,
// and a read advances the reader's clock to the stamp of the data it
// consumes. A full TLS 1.3 handshake thus costs one virtual RTT, exactly
// as on the wire, while tests complete in microseconds of wall time — and
// because time flows strictly along the data, the accounting is
// independent of goroutine scheduling.
package netsim

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
)

// ErrDeadline is returned on reads past the configured deadline.
// It reports Timeout() == true like os.ErrDeadlineExceeded.
var ErrDeadline = &timeoutError{}

// ErrReset is returned on reads after an injected connection reset: the
// peer (or an in-path fault) sent an RST mid-stream. The connection closes
// both directions, so the remote handler unblocks with EOF.
var ErrReset = errors.New("netsim: connection reset by peer")

type timeoutError struct{}

func (*timeoutError) Error() string   { return "netsim: deadline exceeded" }
func (*timeoutError) Timeout() bool   { return true }
func (*timeoutError) Temporary() bool { return true }

// Addr is a net.Addr for simulated endpoints.
type Addr struct {
	IP   netip.Addr
	Port uint16
}

// Network implements net.Addr.
func (Addr) Network() string { return "sim" }

// String implements net.Addr.
func (a Addr) String() string { return fmt.Sprintf("%s:%d", a.IP, a.Port) }

// clock is one endpoint's view of virtual time on a connection. Each
// endpoint owns its clock: a write stamps its arrival from the sender's
// clock, and a read advances only the reader's clock, to the stamp of the
// data it consumed. Virtual time thus flows strictly along the data. A
// single shared per-connection clock would instead let a concurrently
// scheduled reader and writer race on it — a reader advancing the clock
// between two of the peer's writes would inflate the second stamp — making
// pipelined and proxy-relayed latencies depend on goroutine scheduling.
type clock struct {
	mu  sync.Mutex
	now time.Duration
}

func (c *clock) get() time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *clock) add(d time.Duration) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// advance moves the clock forward to t (never backward).
func (c *clock) advance(t time.Duration) {
	c.mu.Lock()
	if t > c.now {
		c.now = t
	}
	c.mu.Unlock()
}

// segment is one write's worth of in-flight data. buf is the pooled buffer
// backing data, returned to bufpool once the segment is fully consumed (by
// writeTo, once its Write returns); segments abandoned by a close simply
// fall to the garbage collector.
type segment struct {
	data    []byte
	readyAt time.Duration
	buf     *[]byte
}

// buffer is one direction of a connection: a queue of stamped segments with
// blocking reads and deadline support. Its counters are int32 and sit with
// its flags in the last two words, which with the 8-byte deadline keeps a
// connection's pair inside the 640-byte size class (see connPair).
type buffer struct {
	mu   sync.Mutex
	cond sync.Cond // cond.L is &mu
	// segs[off:] are the queued segments, head first. A drained queue
	// restarts at segs[:0], so it keeps its backing array, which is inline
	// until more than one segment queues.
	segs   []segment
	inline [1]segment
	// closedAt is the virtual arrival time of the writer's FIN, when the
	// close came from the writing side (zero otherwise). EOF advances the
	// reader's clock to it, so server-side time charged after the last
	// write still reaches a client that waits for close.
	closedAt time.Duration
	// deadline is the read deadline as an offset on the monotonic clock
	// (see deadlineOffset); zero means none.
	deadline int64
	timer    *time.Timer
	rtt      time.Duration // the path's round-trip time
	onReset  func()        // called (unlocked) once, when the reset fires

	// wclock stamps writes (the sender's clock); rclock advances on reads
	// (the receiver's clock). See the clock type for why they differ.
	wclock *clock
	rclock *clock

	// jitter/jitterFrac scale each half-RTT by a factor in
	// [1, 1+jitterFrac]. The sequence is per direction, drawn under b.mu
	// together with the segment enqueue, so the nth segment written in a
	// direction always gets the nth draw. A single link-wide sequence
	// would make stamps depend on goroutine scheduling: opposite-direction
	// writes race legitimately (a TLS 1.3 session-ticket write against the
	// client's first query), and whichever won the race would steal the
	// other's draw.
	jitter     lazySource
	jitterFrac float64

	off int32 // segs[off] is the head segment
	// Fault injection: when cutAt > 0, the reader sees ErrReset in place
	// of the cutAt'th segment (1-based). Cuts count segments, not bytes —
	// segment counts are stable across TLS certificate size variation,
	// which keeps injected resets deterministic across study instances.
	cutAt       int32
	delivered   int32 // fully consumed segments
	closed      bool  // writer closed: EOF after drain
	headPartial bool  // head segment partially consumed; finish it first
	reset       bool
}

// monoEpoch anchors read deadlines on the monotonic clock: a buffer keeps
// its deadline as the nanoseconds since monoEpoch, 8 bytes where a
// time.Time takes 24.
//
//doelint:allow walltaint -- deadlines guard against real hangs and are deliberately wall-clock
var monoEpoch = time.Now()

// deadlineOffset maps a read deadline onto monoEpoch's clock: 0 for the
// zero Time (no deadline), and at least 1 otherwise, so a deadline at or
// before the epoch stays set and has already passed.
func deadlineOffset(t time.Time) int64 {
	if t.IsZero() {
		return 0
	}
	return max(int64(t.Sub(monoEpoch)), 1)
}

// init readies b for a path of round-trip time rtt whose writes are
// stamped from wclock and whose reads advance rclock. jitterFrac > 0 turns
// jitter on, drawn from seed's stream.
func (b *buffer) init(rtt time.Duration, wclock, rclock *clock, jitterFrac float64, seed int64) {
	b.cond.L = &b.mu
	b.segs = b.inline[:0]
	b.rtt, b.wclock, b.rclock = rtt, wclock, rclock
	if jitterFrac > 0 {
		b.jitter.Seed(seed)
		b.jitterFrac = jitterFrac
	}
}

func (b *buffer) write(p []byte) (int, error) {
	// Copy the caller's bytes into a pooled segment buffer: the copy is
	// mandatory (writers reuse p immediately), the pooling only recycles
	// where the copy lands, so wire bytes and segment counts are unchanged.
	buf := bufpool.Get(len(p))
	*buf = append(*buf, p...)
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		bufpool.Put(buf)
		return 0, io.ErrClosedPipe
	}
	half := b.rtt / 2
	if b.jitterFrac > 0 {
		half = time.Duration(float64(half) * (1 + b.jitter.Float64()*b.jitterFrac))
	}
	stamp := b.wclock.get() + half
	// A full backing array first sheds what reads consumed, so a queue
	// that never drains holds about twice its longest backlog.
	if b.off > 0 && len(b.segs) == cap(b.segs) {
		n := copy(b.segs, b.segs[b.off:])
		clear(b.segs[n:])
		b.segs, b.off = b.segs[:n], 0
	}
	b.segs = append(b.segs, segment{data: *buf, readyAt: stamp, buf: buf}) //doelint:transfer -- owned by the segment queue; released as reads drain it
	b.cond.Broadcast()
	return len(p), nil
}

// head is the one wait path of read and writeTo. It blocks until the head
// segment may be consumed, advances the reader's clock to its stamp and
// returns it with b.mu held. Every other exit returns an error with b.mu
// released: io.EOF once the writer's FIN arrives (the reader's clock
// advanced to its stamp), ErrDeadline, ErrReset after a reset, and ErrReset
// in place of the injected cut segment.
func (b *buffer) head() (*segment, error) {
	b.mu.Lock()
	for int(b.off) == len(b.segs) {
		if b.reset {
			b.mu.Unlock()
			return nil, ErrReset
		}
		if b.closed {
			b.rclock.advance(b.closedAt)
			b.mu.Unlock()
			return nil, io.EOF
		}
		//doelint:allow walltaint -- deadlines guard against real hangs and are deliberately wall-clock
		if b.deadline != 0 && int64(time.Since(monoEpoch)) >= b.deadline {
			b.mu.Unlock()
			return nil, ErrDeadline
		}
		b.cond.Wait()
	}
	if b.reset {
		b.mu.Unlock()
		return nil, ErrReset
	}
	if b.cutAt > 0 && !b.headPartial && b.delivered >= b.cutAt-1 {
		b.reset = true
		onReset := b.onReset
		b.cond.Broadcast()
		b.mu.Unlock()
		if onReset != nil {
			onReset()
		}
		return nil, ErrReset
	}
	seg := &b.segs[b.off]
	b.rclock.advance(seg.readyAt)
	return seg, nil
}

// pop removes the fully consumed head segment. Called with b.mu held; the
// caller owns the segment's buffer from here on.
func (b *buffer) pop() {
	b.segs[b.off] = segment{}
	if b.off++; int(b.off) == len(b.segs) {
		b.segs, b.off = b.segs[:0], 0
	}
	b.delivered++
	b.headPartial = false
}

func (b *buffer) read(p []byte) (int, error) {
	seg, err := b.head()
	if err != nil {
		return 0, err
	}
	n := copy(p, seg.data)
	seg.data = seg.data[n:]
	if len(seg.data) == 0 {
		buf := seg.buf
		b.pop()
		// The reader copied everything out, so the backing buffer can be
		// recycled for a future write.
		bufpool.Put(buf)
	} else {
		b.headPartial = true
	}
	b.mu.Unlock()
	return n, nil
}

// writeTo hands each segment, or what a partial read left of the head one,
// to w in one Write, outside b.mu. Segment boundaries thus survive the
// hand-off: a segment of any size becomes exactly one write, and an empty
// one none, as a read loop with a large enough buffer would make them.
func (b *buffer) writeTo(w io.Writer) (int64, error) {
	var total int64
	for {
		seg, err := b.head()
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
		data, buf := seg.data, seg.buf
		b.pop()
		b.mu.Unlock()
		var n int
		if len(data) > 0 {
			n, err = w.Write(data)
		}
		// Writers may not retain data, so the buffer recycles once Write
		// returns.
		bufpool.Put(buf)
		total += int64(n)
		if err != nil {
			return total, err
		}
		if n < len(data) {
			return total, io.ErrShortWrite
		}
	}
}

// closeWrite marks the writer side closed. stamp, when nonzero, is the
// virtual arrival time of the FIN (the writer's clock + half RTT); pass
// zero when the close is the reader abandoning the direction, which
// carries no peer time.
func (b *buffer) closeWrite(stamp time.Duration) {
	b.mu.Lock()
	if !b.closed {
		b.closed = true
		b.closedAt = stamp
	}
	// A closed buffer's reads never block on the deadline (EOF wins), so
	// the wake-up timer has no job left. Dropping it matters: an armed
	// timer sits in the runtime timer heap holding the buffer — and with
	// it the whole connection — alive until it fires, which at campaign
	// rates is a per-connection leak.
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	b.cond.Broadcast()
	b.mu.Unlock()
}

func (b *buffer) setDeadline(t time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.deadline = deadlineOffset(t)
	if b.timer != nil {
		b.timer.Stop()
		b.timer = nil
	}
	if !t.IsZero() {
		d := time.Until(t) //doelint:allow walltaint -- deadline timers run in real time by design
		if d < 0 {
			d = 0
		}
		//doelint:allow walltaint -- deadline timers run in real time by design
		b.timer = time.AfterFunc(d, func() {
			b.mu.Lock()
			b.cond.Broadcast()
			b.mu.Unlock()
		})
	}
	b.cond.Broadcast()
}

// Conn is one endpoint of a simulated connection. It implements net.Conn.
type Conn struct {
	pair      *connPair
	closeOnce sync.Once
	side      uint8 // 0 for the client end, 1 for the server end
}

// connPair is one connection in one allocation: both directions, both
// endpoint clocks, both endpoints and their two addresses, each array
// indexed by side, so dirs[s] carries what side s writes. Go puts an
// 8-byte header on a pointerful object over 512 B, so the pair plus that
// header must fit 640 B to stay out of the 768-byte size class;
// TestConnPairAllocs holds it there.
type connPair struct {
	dirs  [2]buffer
	clks  [2]clock
	ends  [2]Conn
	addrs [2]Addr
}

// recv is the direction this endpoint reads: what the peer wrote.
func (c *Conn) recv() *buffer { return &c.pair.dirs[1-c.side] }

// send is the direction this endpoint writes.
func (c *Conn) send() *buffer { return &c.pair.dirs[c.side] }

// clock is this endpoint's virtual clock.
func (c *Conn) clock() *clock { return &c.pair.clks[c.side] }

// Pair creates a connected pair of Conns with the given round-trip time.
// The first return value is the "client" end. rng (optional) adds jitter:
// its next two Int63 draws seed one independent draw sequence per
// direction (client->server first), so concurrent opposite-direction
// writes cannot reorder each other's draws.
func Pair(client, server Addr, rtt time.Duration, rng *rand.Rand, jitterFrac float64) (*Conn, *Conn) {
	if rng == nil || jitterFrac <= 0 {
		return newPair(client, server, rtt, 0, 0, 0)
	}
	ab := rng.Int63()
	return newPair(client, server, rtt, jitterFrac, ab, rng.Int63())
}

// newPair is Pair with the two directions' jitter seeds drawn; jitterFrac
// <= 0 turns jitter off.
func newPair(client, server Addr, rtt time.Duration, jitterFrac float64, seedAB, seedBA int64) (*Conn, *Conn) {
	p := &connPair{addrs: [2]Addr{client, server}}
	p.dirs[0].init(rtt, &p.clks[0], &p.clks[1], jitterFrac, seedAB)
	p.dirs[1].init(rtt, &p.clks[1], &p.clks[0], jitterFrac, seedBA)
	p.ends[0].pair = p
	p.ends[1].pair, p.ends[1].side = p, 1
	return &p.ends[0], &p.ends[1]
}

// Read implements net.Conn.
func (c *Conn) Read(p []byte) (int, error) { return c.recv().read(p) }

// Write implements net.Conn.
func (c *Conn) Write(p []byte) (int, error) { return c.send().write(p) }

// WriteTo implements io.WriterTo, so io.Copy from a Conn needs no copy
// buffer. It drains the connection until EOF, handing each received
// segment to w in one Write. It exits as Read does: nil at EOF, with this
// endpoint's clock advanced to the FIN's stamp, and ErrDeadline or ErrReset
// otherwise. A write error from w stops it and is returned.
func (c *Conn) WriteTo(w io.Writer) (int64, error) { return c.recv().writeTo(w) }

// Close implements net.Conn. It closes both directions: the send side
// carries a FIN stamped from this endpoint's clock, so a peer waiting for
// EOF inherits time charged after the last write; the receive side is
// merely abandoned and carries no stamp.
func (c *Conn) Close() error {
	c.closeOnce.Do(func() {
		send := c.send()
		send.closeWrite(c.clock().get() + send.rtt/2)
		c.recv().closeWrite(0)
	})
	return nil
}

// LocalAddr implements net.Conn. The address is an Addr.
func (c *Conn) LocalAddr() net.Addr { return c.pair.addrs[c.side] }

// RemoteAddr implements net.Conn. The address is an Addr.
func (c *Conn) RemoteAddr() net.Addr { return c.pair.addrs[1-c.side] }

// SetDeadline implements net.Conn. Deadlines are real-time bounds used to
// abort stuck exchanges; virtual latency is tracked separately.
func (c *Conn) SetDeadline(t time.Time) error {
	c.recv().setDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *Conn) SetReadDeadline(t time.Time) error {
	c.recv().setDeadline(t)
	return nil
}

// SetWriteDeadline implements net.Conn. Writes never block, so this is a
// no-op kept for interface completeness.
func (c *Conn) SetWriteDeadline(time.Time) error { return nil }

// armReset arranges for this endpoint's reads to fail with ErrReset in
// place of the n'th received segment (1-based), after which the connection
// closes both directions so the peer's handler unblocks with EOF. n == 1
// resets before any peer data is delivered (a truncated handshake); larger
// values model a mid-stream RST.
func (c *Conn) armReset(n int) {
	b := c.recv()
	b.mu.Lock()
	b.cutAt = int32(n)
	b.onReset = func() { c.Close() }
	b.mu.Unlock()
}

// Elapsed returns the virtual time this endpoint of the connection has
// consumed, including the connection-establishment RTT added by Dial. Each
// endpoint keeps its own clock; the peer's time reaches this endpoint only
// through the arrival stamps of the data it reads.
func (c *Conn) Elapsed() time.Duration { return c.clock().get() }

// AddLatency charges extra virtual time to this endpoint of the
// connection. Servers use it to model processing costs (e.g. recursive
// resolution at the resolver); the charge reaches the peer through the
// arrival stamps of subsequently written data.
func (c *Conn) AddLatency(d time.Duration) { c.clock().add(d) }

// AddLatency charges virtual time to conn if it is (or wraps) a *Conn.
// It unwraps tls.Conn-style wrappers exposing NetConn() net.Conn.
func AddLatency(conn net.Conn, d time.Duration) {
	if sc := Unwrap(conn); sc != nil {
		sc.AddLatency(d)
	}
}

// Elapsed reports conn's virtual elapsed time, unwrapping TLS if needed.
func Elapsed(conn net.Conn) time.Duration {
	if sc := Unwrap(conn); sc != nil {
		return sc.Elapsed()
	}
	return 0
}

// Unwrap digs through wrappers exposing NetConn() net.Conn (like *tls.Conn)
// until it finds the underlying *Conn, or returns nil.
func Unwrap(conn net.Conn) *Conn {
	for {
		switch c := conn.(type) {
		case *Conn:
			return c
		case interface{ NetConn() net.Conn }:
			conn = c.NetConn()
		default:
			return nil
		}
	}
}
