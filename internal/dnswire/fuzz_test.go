package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

// Fuzz targets for the wire codec: the parser faces attacker-controlled
// bytes in every measurement (scan probes hit arbitrary hosts; middleboxes
// inject responses), so it must never panic, loop or overrun — only return
// errors. Each target also checks the parse→pack→parse fixpoint on inputs
// the parser accepts.

// seedMessages returns valid wire messages covering every section and the
// compression pointer path.
func seedMessages(t testing.TB) [][]byte {
	t.Helper()
	var seeds [][]byte
	q := NewQuery(0x1234, "scan.example.org", TypeA)
	qb, err := q.Pack()
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, qb)

	r := q.Reply()
	r.AddAnswer("scan.example.org", 300, A{Addr: netip.MustParseAddr("192.0.2.1")})
	r.AddAnswer("scan.example.org", 300, CNAME{Target: "alias.example.org"})
	r.AddAuthority("example.org", 900, SOA{MName: "ns1.example.org", RName: "hostmaster.example.org", Serial: 7})
	r.Additionals = append(r.Additionals, Record{
		Name: "ns1.example.org", Class: ClassINET, TTL: 60,
		Data: TXT{Texts: []string{"probe"}},
	})
	r.SetEDNS0(4096, true)
	rb, err := r.Pack()
	if err != nil {
		t.Fatal(err)
	}
	seeds = append(seeds, rb)

	// A hand-built message whose answer name is a compression pointer to
	// the question (0xC00C), the shape real resolvers emit.
	ptr := []byte{
		0xab, 0xcd, 0x81, 0x80, 0, 1, 0, 1, 0, 0, 0, 0,
		3, 'd', 'n', 's', 2, 'c', 'f', 0, // dns.cf.
		0, 1, 0, 1,
		0xC0, 12, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 1, 1, 1, 1,
	}
	seeds = append(seeds, ptr)
	return seeds
}

// otherMessage is what FuzzParseMessage packs after each accepted input,
// into the scratch that input's Pack returned to the pool.
var otherMessage = NewQuery(0xffff, "overwrite.example.net", TypeTXT)

func FuzzParseMessage(f *testing.F) {
	seeds := seedMessages(f)
	for _, seed := range seeds {
		f.Add(seed)
	}
	// Malformed shapes: truncated header, counts promising absent records,
	// a pointer loop.
	f.Add([]byte{0, 1, 2})
	f.Add([]byte{0, 0, 0, 0, 0, 9, 0, 9, 0, 9, 0, 9})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xC0, 12, 0, 1, 0, 1})

	// reused is the long-lived Message a server loop decodes into: every
	// input lands on top of a full response, and must decode to what a
	// fresh Unpack gives.
	reused := new(Message)
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err := UnpackInto(reused, seeds[1]); err != nil {
			t.Fatal(err)
		}
		if rerr := UnpackInto(reused, data); (rerr == nil) != (err == nil) {
			t.Fatalf("UnpackInto on a reused Message returned %v where Unpack returned %v", rerr, err)
		}
		if err != nil {
			return
		}
		if !sameMessage(reused, m) {
			t.Fatalf("UnpackInto on a reused Message decoded\n%v\nwhere Unpack decoded\n%v", reused, m)
		}
		// Accepted messages must render and re-encode without panicking;
		// a successful re-encode must parse again (pack→parse fixpoint),
		// be exact-length and share no memory with Pack's pooled scratch.
		_ = m.String()
		packed, err := m.Pack()
		if err != nil {
			return
		}
		checkPackExact(t, packed, m, otherMessage)
		if _, err := Unpack(packed); err != nil {
			t.Fatalf("repacked message fails to parse: %v\noriginal: %x\nrepacked: %x", err, data, packed)
		}
	})
}

// sameMessage reports whether a and b decoded the same message; an empty
// section equals a nil one.
func sameMessage(a, b *Message) bool {
	return a.Header == b.Header && sameSection(a.Questions, b.Questions) &&
		sameSection(a.Answers, b.Answers) && sameSection(a.Authorities, b.Authorities) &&
		sameSection(a.Additionals, b.Additionals)
}

func sameSection[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || reflect.DeepEqual(x, y))
}

func FuzzParseName(f *testing.F) {
	f.Add([]byte{3, 'd', 'n', 's', 2, 'c', 'f', 0}, uint16(0))
	f.Add([]byte{1, 'a', 0xC0, 0}, uint16(2))           // pointer to earlier name
	f.Add([]byte{0xC0, 0}, uint16(0))                   // self-pointer (loop)
	f.Add([]byte{0x40, 'x', 0}, uint16(0))              // reserved label type
	f.Add([]byte{63, 0}, uint16(0))                     // truncated label
	f.Add(bytes.Repeat([]byte{1, 'a'}, 200), uint16(0)) // unterminated chain

	f.Fuzz(func(t *testing.T, data []byte, off16 uint16) {
		off := int(off16)
		if off > len(data) {
			off = len(data)
		}
		name, next, err := readName(data, off)
		if err != nil {
			return
		}
		if !strings.HasSuffix(name, ".") {
			t.Fatalf("parsed name %q not dot-terminated", name)
		}
		if next <= off && name != "." {
			// A non-root in-place encoding consumes at least one byte.
			if next <= off {
				t.Fatalf("cursor went backwards: off %d -> next %d", off, next)
			}
		}
		if next > len(data) {
			t.Fatalf("cursor %d beyond buffer %d", next, len(data))
		}
		// Re-encoding an accepted name must be stable: if it encodes, the
		// encoded form parses back to itself and re-encodes identically.
		enc, err := appendName(nil, name, nil)
		if err != nil {
			return
		}
		again, _, err := readName(enc, 0)
		if err != nil {
			t.Fatalf("re-encoded name %q fails to parse: %v (wire %x)", name, err, enc)
		}
		enc2, err := appendName(nil, again, nil)
		if err != nil || !bytes.Equal(enc, enc2) {
			t.Fatalf("encode not a fixpoint: %q -> %x, %q -> %x (err %v)", name, enc, again, enc2, err)
		}
	})
}

func FuzzRData(f *testing.F) {
	f.Add(uint16(TypeA), []byte{192, 0, 2, 1})
	f.Add(uint16(TypeAAAA), bytes.Repeat([]byte{0x20}, 16))
	f.Add(uint16(TypeNS), []byte{2, 'n', 's', 0})
	f.Add(uint16(TypeMX), []byte{0, 10, 4, 'm', 'a', 'i', 'l', 0})
	f.Add(uint16(TypeSOA), append([]byte{1, 'm', 0, 1, 'r', 0}, make([]byte, 20)...))
	f.Add(uint16(TypeTXT), []byte{5, 'h', 'e', 'l', 'l', 'o'})
	f.Add(uint16(TypeSRV), []byte{0, 1, 0, 2, 3, 0x55, 1, 's', 0})
	f.Add(uint16(TypeOPT), []byte{0, 12, 0, 2, 0, 0})
	f.Add(uint16(0xFFFF), []byte{1, 2, 3})

	f.Fuzz(func(t *testing.T, rtype uint16, data []byte) {
		rd, err := unpackRData(data, 0, len(data), Type(rtype))
		if err != nil {
			return
		}
		// Accepted RDATA must stringify and re-encode without panicking.
		_ = rd.String()
		if _, err := rd.appendTo(nil, nil); err != nil {
			// Re-encode may legitimately reject (e.g. a name with an
			// embedded empty label survives parsing but not presentation
			// round-trip); erroring is fine, panicking is not.
			return
		}
	})
}

// FuzzQUICVarint hardens the QUIC variable-length integer codec: any input
// either errors or yields a value whose canonical re-encoding parses back
// to itself (parse→append→parse fixpoint), consuming exactly its own
// length and never more bytes than the input offered.
func FuzzQUICVarint(f *testing.F) {
	f.Add([]byte{0x25})
	f.Add([]byte{0x40, 0x25}) // non-minimal two-byte form
	f.Add([]byte{0x7b, 0xbd})
	f.Add([]byte{0x9d, 0x7f, 0x3e, 0x7d})
	f.Add([]byte{0xc2, 0x19, 0x7c, 0x5e, 0xff, 0x14, 0xe8, 0x8c})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	// Truncated varints: a length prefix promising bytes that never come.
	f.Add([]byte{0x40})
	f.Add([]byte{0x80, 0x01, 0x02})
	f.Add([]byte{0xc0, 1, 2, 3, 4, 5, 6})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		v, n, err := ReadQUICVarint(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		if v > MaxQUICVarint {
			t.Fatalf("value %d exceeds the 62-bit range", v)
		}
		enc := AppendQUICVarint(nil, v)
		if len(enc) > n {
			t.Fatalf("canonical encoding of %d is %d bytes, input form was %d", v, len(enc), n)
		}
		v2, n2, err := ReadQUICVarint(enc)
		if err != nil || v2 != v || n2 != len(enc) {
			t.Fatalf("fixpoint broken for %d: got (%d, %d, %v) from %x", v, v2, n2, err, enc)
		}
		if !bytes.Equal(AppendQUICVarint(nil, v2), enc) {
			t.Fatalf("re-encoding %d is not stable", v2)
		}
	})
}

// FuzzDoQFrame hardens the QUIC frame codec DoQ packets are built from: any
// accepted frame must re-encode canonically, and the canonical form must
// parse back to an identical frame and re-encode byte-identically
// (parse→append→parse fixpoint). Seeds cover every supported frame type,
// truncated varints and zero-length streams.
func FuzzDoQFrame(f *testing.F) {
	for _, fr := range []QUICFrame{
		{Type: QUICFramePadding},
		{Type: QUICFramePing},
		{Type: QUICFrameAck, AckLargest: 9, AckDelay: 40, AckFirstRange: 2},
		{Type: QUICFrameCrypto, Data: []byte("hello")},
		{Type: QUICFrameStream, StreamID: 0, Fin: true, Data: []byte{0, 1, 'q'}},
		{Type: QUICFrameStream, StreamID: 4, Offset: 7, Data: []byte("mid")},
		{Type: QUICFrameStream, StreamID: 64, Fin: true}, // zero-length stream
		{Type: QUICFrameConnClose, ErrorCode: 1, FrameType: 6, Data: []byte("oops")},
		{Type: QUICFrameConnCloseApp, ErrorCode: 2, Data: []byte("DOQ_PROTOCOL_ERROR")},
	} {
		wire, err := AppendQUICFrame(nil, fr)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	// Malformed shapes: truncated varints mid-frame, lengths beyond the
	// buffer, a STREAM frame with the LEN bit clear (implicit length).
	f.Add([]byte{0x06, 0x40})
	f.Add([]byte{0x0b, 0x00, 0x05, 'x'})
	f.Add([]byte{0x09, 0x08, 'p', 'a', 'y'})
	f.Add([]byte{0x1c, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, n, err := ParseQUICFrame(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d bytes of %d", n, len(data))
		}
		canon, err := AppendQUICFrame(nil, fr)
		if err != nil {
			t.Fatalf("accepted frame %+v fails to re-encode: %v", fr, err)
		}
		again, n2, err := ParseQUICFrame(canon)
		if err != nil {
			t.Fatalf("canonical form %x fails to parse: %v", canon, err)
		}
		if n2 != len(canon) {
			t.Fatalf("canonical parse consumed %d of %d bytes", n2, len(canon))
		}
		if again.Type != fr.Type || again.StreamID != fr.StreamID || again.Offset != fr.Offset ||
			again.Fin != fr.Fin || !bytes.Equal(again.Data, fr.Data) ||
			again.AckLargest != fr.AckLargest || again.AckDelay != fr.AckDelay ||
			again.AckFirstRange != fr.AckFirstRange ||
			again.ErrorCode != fr.ErrorCode || again.FrameType != fr.FrameType {
			t.Fatalf("fixpoint broken: %+v reparsed as %+v", fr, again)
		}
		canon2, err := AppendQUICFrame(nil, again)
		if err != nil || !bytes.Equal(canon, canon2) {
			t.Fatalf("canonical encoding not stable: %x vs %x (%v)", canon, canon2, err)
		}
	})
}

// FuzzAppendTCP pins the append-style framing path to the original
// pack-then-copy path: for every message the parser accepts, AppendPackTCP
// must produce exactly the 2-byte length prefix plus Pack()'s bytes —
// whether it starts from an empty buffer or appends after existing content
// — and the framed form must survive a ReadTCPAppend→Unpack round trip.
func FuzzAppendTCP(f *testing.F) {
	for _, seed := range seedMessages(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unpack(data)
		if err != nil {
			return
		}
		packed, err := m.Pack()
		if err != nil {
			return
		}
		framed, err := m.AppendPackTCP(nil)
		if err != nil {
			t.Fatalf("AppendPackTCP failed where Pack succeeded: %v", err)
		}
		want, err := AppendTCP(nil, packed)
		if err != nil {
			t.Fatalf("AppendTCP rejected Pack output: %v", err)
		}
		if !bytes.Equal(framed, want) {
			t.Fatalf("AppendPackTCP diverges from frame(Pack):\n got %x\nwant %x", framed, want)
		}
		// Appending after a non-empty prefix must leave the prefix intact
		// and produce the same frame after it (compression offsets are
		// message-relative, not buffer-relative).
		prefix := []byte{0xde, 0xad, 0xbe, 0xef}
		out, err := m.AppendPackTCP(append([]byte(nil), prefix...))
		if err != nil {
			t.Fatalf("AppendPackTCP with prefix: %v", err)
		}
		if !bytes.Equal(out[:len(prefix)], prefix) || !bytes.Equal(out[len(prefix):], framed) {
			t.Fatalf("prefixed AppendPackTCP not self-contained:\n got %x\nwant %x%x", out, prefix, framed)
		}
		// Read the frame back and confirm the message bytes round-trip.
		body, err := ReadTCPAppend(bytes.NewReader(framed), nil)
		if err != nil {
			t.Fatalf("ReadTCPAppend on own frame: %v", err)
		}
		if !bytes.Equal(body, packed) {
			t.Fatalf("framed body mismatch:\n got %x\nwant %x", body, packed)
		}
		if _, err := Unpack(body); err != nil {
			t.Fatalf("framed body fails to parse: %v", err)
		}
	})
}
