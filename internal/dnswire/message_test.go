package dnswire

import (
	"bytes"
	"net/netip"
	"reflect"
	"strings"
	"testing"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func mustUnpack(t *testing.T, b []byte) *Message {
	t.Helper()
	m, err := Unpack(b)
	if err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	return m
}

func TestQueryRoundTrip(t *testing.T) {
	q := NewQuery(0x1234, "Example.COM", TypeA)
	got := mustUnpack(t, mustPack(t, q))
	if got.ID != 0x1234 || !got.RecursionDesired || got.Response {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	want := Question{Name: "example.com.", Type: TypeA, Class: ClassINET}
	if got.Question1() != want {
		t.Errorf("question = %+v, want %+v", got.Question1(), want)
	}
}

// checkPackExact requires what Pack promises of packed, m's Pack result:
// an exact-length slice (cap == len), equal to what AppendPack writes
// after a non-empty prefix, that a later Pack of other leaves as it was.
// Pack's scratch comes from bufpool, so an aliased result would be
// overwritten there.
func checkPackExact(t testing.TB, packed []byte, m, other *Message) {
	t.Helper()
	if cap(packed) != len(packed) {
		t.Fatalf("Pack returned len %d, cap %d; want cap == len", len(packed), cap(packed))
	}
	prefix := []byte("prefix")
	appended, err := m.AppendPack(bytes.Clone(prefix))
	if err != nil {
		t.Fatalf("Pack succeeded but AppendPack failed: %v", err)
	}
	if !bytes.Equal(appended[:len(prefix)], prefix) || !bytes.Equal(appended[len(prefix):], packed) {
		t.Fatalf("Pack = %x, AppendPack after %q = %x", packed, prefix, appended)
	}
	kept := bytes.Clone(packed)
	if _, err := other.Pack(); err != nil {
		t.Fatalf("packing the second message: %v", err)
	}
	if !bytes.Equal(packed, kept) {
		t.Fatalf("a later Pack changed an earlier result: %x, was %x", packed, kept)
	}
}

// TestPackIsExactAndUnaliased packs two different messages back to back,
// in both orders.
func TestPackIsExactAndUnaliased(t *testing.T) {
	q := NewQuery(0x1234, "www.example.com", TypeA)
	r := q.Reply()
	r.AddAnswer("www.example.com", 300, CNAME{Target: "cdn.example.com"})
	r.AddAnswer("cdn.example.com", 60, A{Addr: netip.MustParseAddr("192.0.2.1")})
	checkPackExact(t, mustPack(t, q), q, r)
	checkPackExact(t, mustPack(t, r), r, q)
	checkPackExact(t, mustPack(t, r), r, NewQuery(0x4321, "other.example.net", TypeAAAA))
}

func TestResponseRoundTrip(t *testing.T) {
	q := NewQuery(7, "www.example.com", TypeA)
	r := q.Reply()
	r.Authoritative = true
	r.AddAnswer("www.example.com", 300, CNAME{Target: "cdn.example.com"})
	r.AddAnswer("cdn.example.com", 60, A{Addr: netip.MustParseAddr("192.0.2.1")})
	r.AddAuthority("example.com", 3600, NS{Host: "ns1.example.com"})
	r.Additionals = append(r.Additionals, Record{
		Name: "ns1.example.com", Class: ClassINET, TTL: 3600,
		Data: A{Addr: netip.MustParseAddr("192.0.2.53")},
	})

	got := mustUnpack(t, mustPack(t, r))
	if !got.Response || !got.Authoritative || got.ID != 7 {
		t.Errorf("header mismatch: %+v", got.Header)
	}
	if len(got.Answers) != 2 || len(got.Authorities) != 1 || len(got.Additionals) != 1 {
		t.Fatalf("section counts = %d/%d/%d", len(got.Answers), len(got.Authorities), len(got.Additionals))
	}
	if cn, ok := got.Answers[0].Data.(CNAME); !ok || cn.Target != "cdn.example.com." {
		t.Errorf("answer[0] = %v", got.Answers[0])
	}
	if a, ok := got.Answers[1].Data.(A); !ok || a.Addr != netip.MustParseAddr("192.0.2.1") {
		t.Errorf("answer[1] = %v", got.Answers[1])
	}
}

func TestNameCompressionShrinksMessage(t *testing.T) {
	r := &Message{Header: Header{ID: 1, Response: true}}
	for i := 0; i < 8; i++ {
		r.AddAnswer("host.sub.long-example-domain.org", 60,
			A{Addr: netip.AddrFrom4([4]byte{10, 0, 0, byte(i)})})
	}
	packed := mustPack(t, r)
	// Owner names after the first must be 2-byte pointers: 8 records with
	// repeated 35-byte names would otherwise exceed 300 bytes.
	if len(packed) > 200 {
		t.Errorf("compressed message is %d bytes, compression not effective", len(packed))
	}
	got := mustUnpack(t, packed)
	for i, rr := range got.Answers {
		if rr.Name != "host.sub.long-example-domain.org." {
			t.Errorf("answer %d name = %q", i, rr.Name)
		}
	}
}

func TestAllRDataTypesRoundTrip(t *testing.T) {
	records := []Record{
		{Name: "a.example.", Class: ClassINET, TTL: 1, Data: A{Addr: netip.MustParseAddr("198.51.100.7")}},
		{Name: "aaaa.example.", Class: ClassINET, TTL: 2, Data: AAAA{Addr: netip.MustParseAddr("2001:db8::7")}},
		{Name: "ns.example.", Class: ClassINET, TTL: 3, Data: NS{Host: "ns1.example."}},
		{Name: "cn.example.", Class: ClassINET, TTL: 4, Data: CNAME{Target: "target.example."}},
		{Name: "ptr.example.", Class: ClassINET, TTL: 5, Data: PTR{Target: "host.example."}},
		{Name: "mx.example.", Class: ClassINET, TTL: 6, Data: MX{Preference: 10, Host: "mail.example."}},
		{Name: "soa.example.", Class: ClassINET, TTL: 7, Data: SOA{
			MName: "ns1.example.", RName: "hostmaster.example.",
			Serial: 2019050101, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
		}},
		{Name: "txt.example.", Class: ClassINET, TTL: 8, Data: TXT{Texts: []string{"v=spf1 -all", "second"}}},
		{Name: "srv.example.", Class: ClassINET, TTL: 9, Data: SRV{Priority: 1, Weight: 2, Port: 853, Target: "dot.example."}},
		{Name: "raw.example.", Class: ClassINET, TTL: 10, Data: Raw{Type: Type(4095), Data: []byte{1, 2, 3}}},
	}
	m := &Message{Header: Header{ID: 42, Response: true}, Answers: records}
	got := mustUnpack(t, mustPack(t, m))
	if len(got.Answers) != len(records) {
		t.Fatalf("answers = %d, want %d", len(got.Answers), len(records))
	}
	for i, want := range records {
		if !reflect.DeepEqual(got.Answers[i], want) {
			t.Errorf("record %d:\n got %#v\nwant %#v", i, got.Answers[i], want)
		}
	}
}

func TestEDNSRoundTrip(t *testing.T) {
	q := NewQuery(9, "example.com", TypeA)
	q.SetEDNS0(4096, true)
	got := mustUnpack(t, mustPack(t, q))
	opt, ok := got.OPT()
	if !ok {
		t.Fatal("no OPT record after roundtrip")
	}
	if opt.UDPSize != 4096 || !opt.DO {
		t.Errorf("opt = %+v", opt)
	}
}

func TestExtendedRcode(t *testing.T) {
	m := NewQuery(3, "example.com", TypeA).Reply()
	m.SetEDNS0(1232, false)
	m.Rcode = RcodeBadVers // 16: needs the extended bits
	got := mustUnpack(t, mustPack(t, m))
	if got.Rcode != RcodeBadVers {
		t.Errorf("rcode = %v, want BADVERS", got.Rcode)
	}
}

func TestExtendedRcodeWithoutOPTFails(t *testing.T) {
	m := NewQuery(3, "example.com", TypeA).Reply()
	m.Rcode = RcodeBadVers
	if _, err := m.Pack(); err == nil {
		t.Error("Pack succeeded with extended rcode and no OPT record")
	}
}

func TestPadToBlock(t *testing.T) {
	for _, block := range []int{128, 468} {
		q := NewQuery(11, "some-unique-prefix.measure.example.org", TypeA)
		q.SetEDNS0(4096, false)
		if err := q.PadToBlock(block); err != nil {
			t.Fatalf("PadToBlock(%d): %v", block, err)
		}
		packed := mustPack(t, q)
		if len(packed)%block != 0 {
			t.Errorf("len %% %d = %d, want 0 (len=%d)", block, len(packed)%block, len(packed))
		}
		got := mustUnpack(t, packed)
		opt, _ := got.OPT()
		if _, ok := opt.Padding(); !ok {
			t.Errorf("block %d: padding option missing after roundtrip", block)
		}
	}
}

func TestPadToBlockIsIdempotent(t *testing.T) {
	q := NewQuery(12, "example.com", TypeA)
	q.SetEDNS0(4096, false)
	if err := q.PadToBlock(128); err != nil {
		t.Fatal(err)
	}
	first := len(mustPack(t, q))
	if err := q.PadToBlock(128); err != nil {
		t.Fatal(err)
	}
	if second := len(mustPack(t, q)); second != first {
		t.Errorf("repadding changed size: %d -> %d", first, second)
	}
}

func TestPadWithoutOPTFails(t *testing.T) {
	q := NewQuery(13, "example.com", TypeA)
	if err := q.PadToBlock(128); err == nil {
		t.Error("PadToBlock succeeded without OPT record")
	}
}

func TestUnpackRejectsTruncatedHeader(t *testing.T) {
	if _, err := Unpack(make([]byte, 11)); err == nil {
		t.Error("Unpack accepted 11-byte message")
	}
}

func TestUnpackRejectsTrailingBytes(t *testing.T) {
	b := mustPack(t, NewQuery(1, "example.com", TypeA))
	if _, err := Unpack(append(b, 0)); err == nil {
		t.Error("Unpack accepted trailing byte")
	}
}

func TestUnpackRejectsPointerLoop(t *testing.T) {
	// Header claiming one question whose name is a pointer to itself.
	msg := make([]byte, 12, 18)
	msg[5] = 1 // QDCOUNT=1
	msg = append(msg, 0xC0, 12, 0, 1, 0, 1)
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted self-referential compression pointer")
	}
}

func TestUnpackRejectsForwardPointer(t *testing.T) {
	msg := make([]byte, 12, 18)
	msg[5] = 1
	msg = append(msg, 0xC0, 14, 0, 1, 0, 1) // points past itself
	if _, err := Unpack(msg); err == nil {
		t.Error("Unpack accepted forward compression pointer")
	}
}

func TestNameValidation(t *testing.T) {
	long := strings.Repeat("a", 64)
	if _, err := appendName(nil, long+".example.com", nil); err != ErrLabelTooLong {
		t.Errorf("64-byte label: err = %v, want ErrLabelTooLong", err)
	}
	huge := strings.Repeat("abcdefgh.", 32) // 288 bytes > 255
	if _, err := appendName(nil, huge, nil); err != ErrNameTooLong {
		t.Errorf("oversized name: err = %v, want ErrNameTooLong", err)
	}
	if _, err := appendName(nil, "a..example.com", nil); err != ErrEmptyLabel {
		t.Errorf("empty label: err = %v, want ErrEmptyLabel", err)
	}
}

func TestCanonicalName(t *testing.T) {
	cases := map[string]string{
		"":            ".",
		".":           ".",
		"Example.COM": "example.com.",
		"a.b.":        "a.b.",
	}
	for in, want := range cases {
		if got := CanonicalName(in); got != want {
			t.Errorf("CanonicalName(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"a.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"notexample.com", "example.com", false},
		{"anything.org", ".", true},
		{"example.com", "a.example.com", false},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
}

func TestCaseInsensitiveDecoding(t *testing.T) {
	q := NewQuery(5, "MiXeD.ExAmPlE.CoM", TypeAAAA)
	got := mustUnpack(t, mustPack(t, q))
	if got.Question1().Name != "mixed.example.com." {
		t.Errorf("name = %q", got.Question1().Name)
	}
}

func TestTCPFraming(t *testing.T) {
	var buf bytes.Buffer
	msg := mustPack(t, NewQuery(21, "example.com", TypeA))
	if err := WriteTCP(&buf, msg); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Error("framed roundtrip mismatch")
	}
}

func TestTCPFramingMultipleMessages(t *testing.T) {
	var buf bytes.Buffer
	var want [][]byte
	for i := 0; i < 5; i++ {
		msg := mustPack(t, NewQuery(uint16(i), "example.com", TypeA))
		want = append(want, msg)
		if err := WriteTCP(&buf, msg); err != nil {
			t.Fatal(err)
		}
	}
	for i := range want {
		got, err := ReadTCP(&buf)
		if err != nil {
			t.Fatalf("message %d: %v", i, err)
		}
		if !bytes.Equal(got, want[i]) {
			t.Errorf("message %d mismatch", i)
		}
	}
}

func TestPackTCPMatchesWriteTCP(t *testing.T) {
	m := NewQuery(33, "example.com", TypeA)
	framed, err := PackTCP(m)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTCP(&buf, mustPack(t, m)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(framed, buf.Bytes()) {
		t.Error("PackTCP differs from WriteTCP output")
	}
}

func TestWriteTCPRejectsOversized(t *testing.T) {
	if err := WriteTCP(&bytes.Buffer{}, make([]byte, MaxTCPMessage+1)); err == nil {
		t.Error("WriteTCP accepted oversized message")
	}
}

func TestNewIDVaries(t *testing.T) {
	seen := map[uint16]bool{}
	for i := 0; i < 100; i++ {
		seen[NewID()] = true
	}
	if len(seen) < 90 {
		t.Errorf("only %d distinct IDs in 100 draws", len(seen))
	}
}

func TestTypeAndRcodeStrings(t *testing.T) {
	if TypeA.String() != "A" || Type(4095).String() != "TYPE4095" {
		t.Error("Type.String mismatch")
	}
	if RcodeServFail.String() != "SERVFAIL" || Rcode(100).String() != "RCODE100" {
		t.Error("Rcode.String mismatch")
	}
	if tt, ok := ParseType("AAAA"); !ok || tt != TypeAAAA {
		t.Error("ParseType(AAAA) failed")
	}
	if _, ok := ParseType("NOPE"); ok {
		t.Error("ParseType accepted junk")
	}
}

func TestMessageString(t *testing.T) {
	m := NewQuery(77, "example.com", TypeA).Reply()
	m.AddAnswer("example.com", 60, A{Addr: netip.MustParseAddr("192.0.2.1")})
	s := m.String()
	for _, want := range []string{"NOERROR", "example.com.", "192.0.2.1", "ANSWER SECTION"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() missing %q:\n%s", want, s)
		}
	}
}

func TestUnpackFuzzCorpusDoesNotPanic(t *testing.T) {
	// Hand-picked malformed inputs; Unpack must return errors, never panic.
	corpus := [][]byte{
		nil,
		{0},
		make([]byte, 12),
		append(make([]byte, 12), 0xFF),
		{0, 1, 0x80, 0, 0, 1, 0, 0, 0, 0, 0, 0, 63},
		{0, 1, 0x80, 0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 41, 16, 0, 0, 0, 0, 0, 0, 4, 0, 12, 0, 9},
	}
	for i, b := range corpus {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("input %d: panic: %v", i, r)
				}
			}()
			Unpack(b) //nolint:errcheck // errors are expected; only panics matter
		}()
	}
}
