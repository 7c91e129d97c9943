package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
	"sync"

	"dnsencryption.info/doe/internal/bufpool"
)

// Errors returned by the message codec.
var (
	ErrHeaderTooShort = errors.New("dnswire: message shorter than 12-byte header")
	ErrTrailingBytes  = errors.New("dnswire: trailing bytes after message")
)

// Question is a single entry of the question section.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String implements fmt.Stringer.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", CanonicalName(q.Name), q.Class, q.Type)
}

// Record is a resource record: an owner name plus typed RDATA.
type Record struct {
	Name  string
	Class Class
	TTL   uint32
	Data  RData
}

// Type returns the record type, derived from the RDATA.
func (r Record) Type() Type {
	if r.Data == nil {
		return TypeNone
	}
	return r.Data.RType()
}

// String renders the record in zone-file style.
func (r Record) String() string {
	return fmt.Sprintf("%s %d %s %s %s",
		CanonicalName(r.Name), r.TTL, r.Class, r.Type(), r.Data)
}

// Message is a full DNS message.
type Message struct {
	Header
	Questions   []Question
	Answers     []Record
	Authorities []Record
	Additionals []Record
}

// NewQuery builds a recursion-desired query for (name, qtype) with the given
// transaction ID.
func NewQuery(id uint16, name string, qtype Type) *Message {
	return &Message{
		Header: Header{ID: id, RecursionDesired: true},
		Questions: []Question{{
			Name:  CanonicalName(name),
			Type:  qtype,
			Class: ClassINET,
		}},
	}
}

// Reply builds a response skeleton for m: same ID and question, QR set,
// recursion bits copied.
func (m *Message) Reply() *Message {
	r := &Message{
		Header: Header{
			ID:                 m.ID,
			Response:           true,
			Opcode:             m.Opcode,
			RecursionDesired:   m.RecursionDesired,
			RecursionAvailable: true,
		},
	}
	r.Questions = append(r.Questions, m.Questions...)
	return r
}

// Question1 returns the first question, or a zero Question if none.
func (m *Message) Question1() Question {
	if len(m.Questions) == 0 {
		return Question{}
	}
	return m.Questions[0]
}

// AddAnswer appends an answer record.
func (m *Message) AddAnswer(name string, ttl uint32, data RData) *Message {
	m.Answers = append(m.Answers, Record{
		Name: CanonicalName(name), Class: ClassINET, TTL: ttl, Data: data,
	})
	return m
}

// AddAuthority appends an authority-section record.
func (m *Message) AddAuthority(name string, ttl uint32, data RData) *Message {
	m.Authorities = append(m.Authorities, Record{
		Name: CanonicalName(name), Class: ClassINET, TTL: ttl, Data: data,
	})
	return m
}

// packState carries message-scoped pack state: the RFC 1035 §4.1.4
// compression offsets and the buffer index of the message's first byte, so
// a message can be packed after framing headroom while its pointers stay
// message-relative. States are pooled — steady-state packing reuses one map
// instead of allocating a fresh one per message.
type packState struct {
	base int
	off  map[string]int
}

var packStatePool = sync.Pool{
	New: func() any { return &packState{off: make(map[string]int, 8)} },
}

func newPackState(base int) *packState {
	ps := packStatePool.Get().(*packState)
	ps.base = base
	return ps
}

func (ps *packState) release() {
	for k := range ps.off {
		delete(ps.off, k)
	}
	packStatePool.Put(ps)
}

// Pack serializes the message to wire format with name compression. It
// packs into pooled scratch and returns an exact-length copy (cap == len),
// so the result shares no memory with the pool and holds no slack; a
// caller that frames or batches messages packs with AppendPack instead.
func (m *Message) Pack() ([]byte, error) {
	scratch := bufpool.Get(512)
	packed, err := m.AppendPack(*scratch)
	if err != nil {
		bufpool.Put(scratch)
		return nil, err
	}
	out := make([]byte, len(packed))
	copy(out, packed)
	*scratch = packed // a message over 512 B grew the scratch; pool that
	bufpool.Put(scratch)
	return out, nil
}

// AppendPack appends the wire form of m to buf and returns the extended
// slice. The message may start at any offset: compression pointers are
// encoded relative to len(buf) at the time of the call, so callers can
// reserve framing headroom first (see AppendPackTCP) without the historical
// pack-then-copy.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	ps := newPackState(len(buf))
	defer ps.release()
	ext := uint16(m.Rcode) >> 4
	if ext != 0 {
		if _, ok := m.OPT(); !ok {
			return nil, fmt.Errorf("dnswire: rcode %s needs an EDNS(0) OPT record", m.Rcode)
		}
	}
	buf = binary.BigEndian.AppendUint16(buf, m.ID)
	buf = binary.BigEndian.AppendUint16(buf, m.flags())
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Questions)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Answers)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Authorities)))
	buf = binary.BigEndian.AppendUint16(buf, uint16(len(m.Additionals)))

	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, ps); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]Record{m.Answers, m.Authorities, m.Additionals} {
		for _, rr := range sec {
			if buf, err = appendRecord(buf, rr, ps, ext); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

func appendRecord(buf []byte, rr Record, ps *packState, extRcode uint16) ([]byte, error) {
	if rr.Data == nil {
		return nil, fmt.Errorf("dnswire: record %q has nil data", rr.Name)
	}
	var err error
	name := rr.Name
	class := rr.Class
	ttl := rr.TTL
	if opt, ok := rr.Data.(OPT); ok {
		name = "."
		if opt.UDPSize != 0 {
			class = Class(opt.UDPSize)
		}
		ttl = uint32(opt.ExtendedRcode|uint8(extRcode))<<24 | uint32(opt.Version)<<16
		if opt.DO {
			ttl |= 1 << 15
		}
	}
	if buf, err = appendName(buf, name, ps); err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Data.RType()))
	buf = binary.BigEndian.AppendUint16(buf, uint16(class))
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	// Reserve the RDLENGTH slot, append RDATA, then back-patch.
	lenOff := len(buf)
	buf = append(buf, 0, 0)
	if buf, err = rr.Data.appendTo(buf, ps); err != nil {
		return nil, err
	}
	rdlen := len(buf) - lenOff - 2
	if rdlen > 0xFFFF {
		return nil, fmt.Errorf("dnswire: rdata of %q exceeds 65535 bytes", rr.Name)
	}
	binary.BigEndian.PutUint16(buf[lenOff:], uint16(rdlen))
	return buf, nil
}

// Unpack parses a wire-format message. Trailing bytes are an error.
func Unpack(msg []byte) (*Message, error) {
	m := &Message{}
	if err := UnpackInto(m, msg); err != nil {
		return nil, err
	}
	return m, nil
}

// Reset clears m for reuse, keeping the capacity of its section slices.
func (m *Message) Reset() {
	m.Header = Header{}
	m.Questions = m.Questions[:0]
	m.Answers = m.Answers[:0]
	m.Authorities = m.Authorities[:0]
	m.Additionals = m.Additionals[:0]
}

// UnpackInto parses msg into m, resetting m first and reusing its section
// slices — steady-state server loops parse every request into one
// long-lived Message without reallocating the sections. Every field of the
// result is copied out of msg, so callers may overwrite msg (e.g. a pooled
// read buffer) as soon as UnpackInto returns. On error m is left in an
// unspecified partially-parsed state.
func UnpackInto(m *Message, msg []byte) error {
	m.Reset()
	if len(msg) < 12 {
		return ErrHeaderTooShort
	}
	m.ID = binary.BigEndian.Uint16(msg)
	m.setFlags(binary.BigEndian.Uint16(msg[2:]))
	qd := int(binary.BigEndian.Uint16(msg[4:]))
	an := int(binary.BigEndian.Uint16(msg[6:]))
	ns := int(binary.BigEndian.Uint16(msg[8:]))
	ar := int(binary.BigEndian.Uint16(msg[10:]))
	off := 12
	var err error
	// qname is the first question's name when its encoding at offset 12
	// holds no compression pointer. An owner name that is the pointer
	// 0xC00C then decodes to this very string, so records share it. A
	// question name that itself chases pointers could sit one hop short
	// of maxPointers, where a record's extra hop fails, so its records
	// decode their owners in full.
	var qname string
	for i := 0; i < qd; i++ {
		var q Question
		if q.Name, off, err = readName(msg, off); err != nil {
			return fmt.Errorf("question %d: %w", i, err)
		}
		if i == 0 && uncompressed(msg, 12) {
			qname = q.Name
		}
		if off+4 > len(msg) {
			return ErrBufferTooSmall
		}
		q.Type = Type(binary.BigEndian.Uint16(msg[off:]))
		q.Class = Class(binary.BigEndian.Uint16(msg[off+2:]))
		off += 4
		m.Questions = append(m.Questions, q)
	}
	sections := []struct {
		count int
		dst   *[]Record
		name  string
	}{
		{an, &m.Answers, "answer"},
		{ns, &m.Authorities, "authority"},
		{ar, &m.Additionals, "additional"},
	}
	for _, sec := range sections {
		for i := 0; i < sec.count; i++ {
			var rr Record
			if rr, off, err = unpackRecord(msg, off, qname); err != nil {
				return fmt.Errorf("%s %d: %w", sec.name, i, err)
			}
			if opt, ok := rr.Data.(OPT); ok {
				// Merge the extended rcode bits into the header rcode.
				m.Rcode |= Rcode(opt.ExtendedRcode) << 4
			}
			*sec.dst = append(*sec.dst, rr)
		}
	}
	if off != len(msg) {
		return ErrTrailingBytes
	}
	return nil
}

// unpackRecord decodes the record at off. qname, when not empty, is the
// name a pointer to offset 12 decodes to (see UnpackInto).
func unpackRecord(msg []byte, off int, qname string) (Record, int, error) {
	var rr Record
	var name string
	var err error
	if qname != "" && off+1 < len(msg) && msg[off] == 0xC0 && msg[off+1] == 12 {
		name, off = qname, off+2
	} else if name, off, err = readName(msg, off); err != nil {
		return rr, 0, err
	}
	if off+10 > len(msg) {
		return rr, 0, ErrBufferTooSmall
	}
	rtype := Type(binary.BigEndian.Uint16(msg[off:]))
	class := Class(binary.BigEndian.Uint16(msg[off+2:]))
	ttl := binary.BigEndian.Uint32(msg[off+4:])
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if off+rdlen > len(msg) {
		return rr, 0, ErrRDataTooShort
	}
	data, err := unpackRData(msg, off, rdlen, rtype)
	if err != nil {
		return rr, 0, err
	}
	rr = Record{Name: name, Class: class, TTL: ttl, Data: data}
	if opt, ok := data.(OPT); ok {
		opt.UDPSize = uint16(class)
		opt.ExtendedRcode = uint8(ttl >> 24)
		opt.Version = uint8(ttl >> 16)
		opt.DO = ttl&(1<<15) != 0
		rr.Data = opt
		rr.Class = ClassINET
		rr.TTL = 0
	}
	return rr, off + rdlen, nil
}

// String renders the message in dig-like presentation form.
func (m *Message) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, ";; opcode: %s, status: %s, id: %d\n", m.Opcode, m.Rcode, m.ID)
	fmt.Fprintf(&b, ";; flags:%s; QUERY: %d, ANSWER: %d, AUTHORITY: %d, ADDITIONAL: %d\n",
		m.flagString(), len(m.Questions), len(m.Answers), len(m.Authorities), len(m.Additionals))
	if len(m.Questions) > 0 {
		b.WriteString(";; QUESTION SECTION:\n")
		for _, q := range m.Questions {
			fmt.Fprintf(&b, ";%s\n", q)
		}
	}
	writeSection := func(title string, rrs []Record) {
		if len(rrs) == 0 {
			return
		}
		fmt.Fprintf(&b, ";; %s SECTION:\n", title)
		for _, rr := range rrs {
			fmt.Fprintf(&b, "%s\n", rr)
		}
	}
	writeSection("ANSWER", m.Answers)
	writeSection("AUTHORITY", m.Authorities)
	writeSection("ADDITIONAL", m.Additionals)
	return b.String()
}

func (m *Message) flagString() string {
	var b strings.Builder
	add := func(on bool, s string) {
		if on {
			b.WriteByte(' ')
			b.WriteString(s)
		}
	}
	add(m.Response, "qr")
	add(m.Authoritative, "aa")
	add(m.Truncated, "tc")
	add(m.RecursionDesired, "rd")
	add(m.RecursionAvailable, "ra")
	add(m.AuthenticatedData, "ad")
	add(m.CheckingDisabled, "cd")
	return b.String()
}
