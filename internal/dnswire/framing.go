package dnswire

import (
	"encoding/binary"
	"fmt"
	"io"
	"math/rand"
	"sync"
	"sync/atomic"

	"dnsencryption.info/doe/internal/bufpool"
)

// MaxTCPMessage is the largest DNS message expressible with 2-byte framing.
const MaxTCPMessage = 0xFFFF

// AppendTCP appends msg to buf with the 2-byte big-endian length prefix used
// by DNS over TCP (RFC 1035 §4.2.2) and DNS over TLS (RFC 7858), returning
// the extended slice.
func AppendTCP(buf, msg []byte) ([]byte, error) {
	if len(msg) > MaxTCPMessage {
		return nil, fmt.Errorf("dnswire: message of %d bytes exceeds TCP framing limit", len(msg))
	}
	buf = append(buf, byte(len(msg)>>8), byte(len(msg)))
	return append(buf, msg...), nil
}

// WriteTCP writes msg to w with the 2-byte big-endian length prefix. A
// single Write call carries prefix and payload so the kernel can coalesce
// them. It allocates a fresh frame per call; hot paths should frame into a
// reused scratch buffer with AppendPackTCP instead.
func WriteTCP(w io.Writer, msg []byte) error {
	framed, err := AppendTCP(make([]byte, 0, 2+len(msg)), msg)
	if err != nil {
		return err
	}
	_, err = w.Write(framed)
	return err
}

// ReadTCP reads one length-prefixed DNS message from r into a fresh buffer.
func ReadTCP(r io.Reader) ([]byte, error) {
	return ReadTCPAppend(r, nil)
}

// ReadTCPAppend reads one length-prefixed DNS message from r, appending it
// after len(buf) and returning the extended slice. Passing a reused scratch
// buffer (typically scratch[:0]) makes the steady-state read path
// allocation-free; the returned slice aliases the scratch and must not be
// retained past its next reuse.
//
//doelint:hotpath
func ReadTCPAppend(r io.Reader, buf []byte) ([]byte, error) {
	// The 2-byte length header is read into the scratch buffer itself and
	// then overwritten by the body: a local array would escape through the
	// io.Reader call and cost an allocation per read.
	start := len(buf)
	buf = bufpool.Grow(buf, 2)
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return nil, err
	}
	msgLen := int(binary.BigEndian.Uint16(buf[start:]))
	buf = bufpool.Grow(buf[:start], msgLen)
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return nil, err
	}
	return buf, nil
}

// PackTCP packs m and prepends the 2-byte length prefix.
func PackTCP(m *Message) ([]byte, error) {
	return m.AppendPackTCP(make([]byte, 0, 2+512))
}

// AppendPackTCP appends m in wire form with its 2-byte TCP length prefix to
// buf: it reserves the prefix, packs in place (compression pointers are
// message-relative, so the reserved headroom does not disturb them), and
// backfills the length — no intermediate copy.
//
//doelint:hotpath
func (m *Message) AppendPackTCP(buf []byte) ([]byte, error) {
	start := len(buf)
	buf = append(buf, 0, 0)
	out, err := m.AppendPack(buf)
	if err != nil {
		return nil, err
	}
	body := len(out) - start - 2
	if body > MaxTCPMessage {
		return nil, fmt.Errorf("dnswire: message of %d bytes exceeds TCP framing limit", body)
	}
	binary.BigEndian.PutUint16(out[start:], uint16(body))
	return out, nil
}

// idSource generates fallback transaction IDs. DNS IDs only need to be
// unpredictable enough to frustrate off-path spoofing of clear-text queries;
// encrypted transports do not rely on them, so math/rand suffices here.
// Sessions that issue many queries should carry their own IDGen instead of
// funnelling every query through this lock.
var idSource = struct {
	sync.Mutex
	rng *rand.Rand
}{rng: rand.New(rand.NewSource(0x00d15ea5e))}

// NewID returns a fresh transaction ID from the process-wide source.
func NewID() uint16 {
	idSource.Lock()
	defer idSource.Unlock()
	return uint16(idSource.rng.Intn(0x10000))
}

// idGenSeq numbers IDGen instances so each derives a distinct seed without
// any shared lock on the query path.
var idGenSeq atomic.Uint64

// IDGen is a per-session transaction-ID generator. Each session runs its
// own FNV-seeded splitmix64 stream, so parallel workers never contend on
// the idSource mutex. The zero IDGen is not usable; construct with NewIDGen.
type IDGen struct {
	state uint64
}

// NewIDGen returns a generator seeded by FNV-1a over a process-wide sequence
// number: concurrent sessions draw from decorrelated streams while the only
// shared operation is one atomic increment at session setup.
func NewIDGen() IDGen {
	seq := idGenSeq.Add(1)
	const (
		offset64 = 0xcbf29ce484222325
		prime64  = 0x100000001b3
	)
	h := uint64(offset64)
	for i := 0; i < 8; i++ {
		h ^= seq & 0xff
		h *= prime64
		seq >>= 8
	}
	return IDGen{state: h}
}

// Next returns the next transaction ID. Next is not safe for concurrent
// use: a session owns its generator and already serializes queries behind
// the lock guarding its connection.
func (g *IDGen) Next() uint16 {
	g.state += 0x9e3779b97f4a7c15
	z := g.state
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return uint16(z)
}
