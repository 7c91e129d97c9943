package dnswire

// HTTP/2 framing primitives (RFC 7540 §4) for the multiplexed DoH path.
// Both endpoints of the study's h2 connections are in this repository, so
// the subset is deliberately small: 9-byte frame headers, the client
// preface, and HPACK literal-header-field-without-indexing string coding
// (RFC 7541 §5.2, §6.2.2) with no Huffman tables and no dynamic table.
// Like the TCP framing above, the append/parse pairs are allocation-free in
// steady state when handed reused scratch buffers.

import (
	"encoding/binary"
	"fmt"
	"io"

	"dnsencryption.info/doe/internal/bufpool"
)

// H2ClientPreface is the fixed connection preface every HTTP/2 client sends
// first (RFC 7540 §3.5).
const H2ClientPreface = "PRI * HTTP/2.0\r\n\r\nSM\r\n\r\n"

// H2FrameHeaderLen is the fixed frame-header size (RFC 7540 §4.1).
const H2FrameHeaderLen = 9

// MaxH2FrameLen is the largest payload this implementation reads or writes:
// the protocol's initial SETTINGS_MAX_FRAME_SIZE, which neither end raises.
const MaxH2FrameLen = 1 << 14

// H2FrameType identifies a frame (RFC 7540 §6).
type H2FrameType uint8

// Frame types the DoH path uses. PUSH_PROMISE, PRIORITY and CONTINUATION
// never appear: headers always fit one frame and neither end pushes.
const (
	H2FrameData         H2FrameType = 0x0
	H2FrameHeaders      H2FrameType = 0x1
	H2FrameRSTStream    H2FrameType = 0x3
	H2FrameSettings     H2FrameType = 0x4
	H2FramePing         H2FrameType = 0x6
	H2FrameGoAway       H2FrameType = 0x7
	H2FrameWindowUpdate H2FrameType = 0x8
)

// String implements fmt.Stringer.
func (t H2FrameType) String() string {
	switch t {
	case H2FrameData:
		return "DATA"
	case H2FrameHeaders:
		return "HEADERS"
	case H2FrameRSTStream:
		return "RST_STREAM"
	case H2FrameSettings:
		return "SETTINGS"
	case H2FramePing:
		return "PING"
	case H2FrameGoAway:
		return "GOAWAY"
	case H2FrameWindowUpdate:
		return "WINDOW_UPDATE"
	}
	return fmt.Sprintf("FRAME(0x%x)", uint8(t))
}

// Frame flags (RFC 7540 §6).
const (
	H2FlagEndStream  byte = 0x1
	H2FlagEndHeaders byte = 0x4
)

// H2Frame is a parsed frame header; the payload travels separately.
type H2Frame struct {
	Type     H2FrameType
	Flags    byte
	StreamID uint32
}

// EndStream reports the END_STREAM flag.
func (f H2Frame) EndStream() bool { return f.Flags&H2FlagEndStream != 0 }

// AppendH2FrameHeader appends the 9-byte header for a frame whose payload is
// n bytes and returns the extended slice.
func AppendH2FrameHeader(buf []byte, t H2FrameType, flags byte, streamID uint32, n int) ([]byte, error) {
	if n > MaxH2FrameLen {
		return nil, fmt.Errorf("dnswire: h2 payload of %d bytes exceeds frame limit", n)
	}
	return append(buf,
		byte(n>>16), byte(n>>8), byte(n),
		byte(t), flags,
		byte(streamID>>24)&0x7f, byte(streamID>>16), byte(streamID>>8), byte(streamID),
	), nil
}

// ReserveH2FrameHeader appends 9 placeholder bytes for a frame header whose
// payload length is not yet known; FinishH2Frame backfills it once the
// payload has been appended after it.
func ReserveH2FrameHeader(buf []byte) []byte {
	return append(buf, 0, 0, 0, 0, 0, 0, 0, 0, 0)
}

// FinishH2Frame backfills the header reserved at start, sizing the frame to
// everything appended since, and returns buf unchanged in length.
func FinishH2Frame(buf []byte, start int, t H2FrameType, flags byte, streamID uint32) ([]byte, error) {
	n := len(buf) - start - H2FrameHeaderLen
	if n < 0 {
		return nil, fmt.Errorf("dnswire: h2 frame finished before its reserved header")
	}
	if n > MaxH2FrameLen {
		return nil, fmt.Errorf("dnswire: h2 payload of %d bytes exceeds frame limit", n)
	}
	h := buf[start:]
	h[0], h[1], h[2] = byte(n>>16), byte(n>>8), byte(n)
	h[3], h[4] = byte(t), flags
	binary.BigEndian.PutUint32(h[5:9], streamID&0x7fffffff)
	return buf, nil
}

// AppendH2Frame appends a complete frame — header plus payload — to buf and
// returns the extended slice.
//
//doelint:hotpath
func AppendH2Frame(buf []byte, t H2FrameType, flags byte, streamID uint32, payload []byte) ([]byte, error) {
	buf, err := AppendH2FrameHeader(buf, t, flags, streamID, len(payload))
	if err != nil {
		return nil, err
	}
	return append(buf, payload...), nil
}

// ReadH2FrameAppend reads one frame from r, appending its payload after
// len(buf); it returns the parsed header and the extended slice. Passing a
// reused scratch buffer (typically scratch[:0]) makes the steady-state read
// path allocation-free; the returned slice aliases the scratch and must not
// be retained past its next reuse.
//
//doelint:hotpath
func ReadH2FrameAppend(r io.Reader, buf []byte) (H2Frame, []byte, error) {
	// Like ReadTCPAppend, the header lands in the scratch itself and is
	// then overwritten by the payload; a local array would escape through
	// the io.Reader call.
	start := len(buf)
	buf = bufpool.Grow(buf, H2FrameHeaderLen)
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return H2Frame{}, nil, err
	}
	h := buf[start:]
	n := int(h[0])<<16 | int(h[1])<<8 | int(h[2])
	f := H2Frame{
		Type:     H2FrameType(h[3]),
		Flags:    h[4],
		StreamID: binary.BigEndian.Uint32(h[5:]) & 0x7fffffff,
	}
	if n > MaxH2FrameLen {
		return H2Frame{}, nil, fmt.Errorf("dnswire: h2 frame of %d bytes exceeds frame limit", n)
	}
	buf = bufpool.Grow(buf[:start], n)
	if _, err := io.ReadFull(r, buf[start:]); err != nil {
		return H2Frame{}, nil, err
	}
	return f, buf, nil
}

// AppendHpackInt appends v as an HPACK prefix integer (RFC 7541 §5.1):
// first holds the bits above the prefix, prefixBits is the prefix width.
func AppendHpackInt(buf []byte, first byte, prefixBits uint, v int) []byte {
	limit := (1 << prefixBits) - 1
	if v < limit {
		return append(buf, first|byte(v))
	}
	buf = append(buf, first|byte(limit))
	v -= limit
	for v >= 0x80 {
		buf = append(buf, byte(v)|0x80)
		v >>= 7
	}
	return append(buf, byte(v))
}

// readHpackInt parses an HPACK prefix integer, returning the value and the
// remaining input.
func readHpackInt(b []byte, prefixBits uint) (int, []byte, error) {
	if len(b) == 0 {
		return 0, nil, errHpackTruncated
	}
	limit := (1 << prefixBits) - 1
	v := int(b[0]) & limit
	b = b[1:]
	if v < limit {
		return v, b, nil
	}
	shift := uint(0)
	for {
		if len(b) == 0 || shift > 28 {
			return 0, nil, errHpackTruncated
		}
		c := b[0]
		b = b[1:]
		v += int(c&0x7f) << shift
		if c&0x80 == 0 {
			return v, b, nil
		}
		shift += 7
	}
}

var errHpackTruncated = fmt.Errorf("dnswire: truncated HPACK field")

// AppendHpackLiteral appends one header field as an HPACK literal without
// indexing with a new name (RFC 7541 §6.2.2), raw strings, no Huffman.
//
//doelint:hotpath
func AppendHpackLiteral(buf []byte, name, value string) []byte {
	buf = append(buf, 0x00)
	buf = AppendHpackInt(buf, 0x00, 7, len(name))
	buf = append(buf, name...)
	buf = AppendHpackInt(buf, 0x00, 7, len(value))
	return append(buf, value...)
}

// AppendHpackLiteralBytes is AppendHpackLiteral for a []byte value, avoiding
// a string conversion on the query path.
//
//doelint:hotpath
func AppendHpackLiteralBytes(buf []byte, name string, value []byte) []byte {
	buf = append(buf, 0x00)
	buf = AppendHpackInt(buf, 0x00, 7, len(name))
	buf = append(buf, name...)
	buf = AppendHpackInt(buf, 0x00, 7, len(value))
	return append(buf, value...)
}

// ReadHpackLiteral parses one literal-without-indexing field produced by
// AppendHpackLiteral, returning name and value slices aliasing b and the
// remaining input. Fields using indexing or Huffman coding are rejected —
// the study's own endpoints never emit them.
//
//doelint:hotpath
func ReadHpackLiteral(b []byte) (name, value, rest []byte, err error) {
	if len(b) == 0 {
		return nil, nil, nil, errHpackTruncated
	}
	// 0x00 = literal without indexing, 0x10 = never-indexed: both carry the
	// same new-name layout. Anything else needs table state we don't keep.
	if b[0] != 0x00 && b[0] != 0x10 {
		return nil, nil, nil, fmt.Errorf("dnswire: unsupported HPACK field type 0x%02x", b[0])
	}
	b = b[1:]
	name, b, err = readHpackString(b)
	if err != nil {
		return nil, nil, nil, err
	}
	value, b, err = readHpackString(b)
	if err != nil {
		return nil, nil, nil, err
	}
	return name, value, b, nil
}

// readHpackString parses one raw string literal (H bit clear).
func readHpackString(b []byte) ([]byte, []byte, error) {
	if len(b) == 0 {
		return nil, nil, errHpackTruncated
	}
	if b[0]&0x80 != 0 {
		return nil, nil, fmt.Errorf("dnswire: Huffman-coded HPACK string not supported")
	}
	n, b, err := readHpackInt(b, 7)
	if err != nil {
		return nil, nil, err
	}
	if n > len(b) {
		return nil, nil, errHpackTruncated
	}
	return b[:n], b[n:], nil
}
