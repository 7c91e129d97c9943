package dnswire

import (
	"encoding/binary"
	"testing"
	"unsafe"
)

// wireBuilder hand-assembles a message, so a test can place names,
// pointers and letter case where an encoder never would.
type wireBuilder struct{ b []byte }

func newWire(qd, an int) *wireBuilder {
	w := &wireBuilder{b: make([]byte, 12)}
	binary.BigEndian.PutUint16(w.b[4:], uint16(qd))
	binary.BigEndian.PutUint16(w.b[6:], uint16(an))
	return w
}

// name appends labels (case kept) ended by a root byte, or by a pointer
// to ptr when ptr >= 0, and returns the offset the name starts at.
func (w *wireBuilder) name(ptr int, labels ...string) int {
	off := len(w.b)
	for _, l := range labels {
		w.b = append(w.b, byte(len(l)))
		w.b = append(w.b, l...)
	}
	if ptr >= 0 {
		w.b = append(w.b, 0xC0|byte(ptr>>8), byte(ptr))
	} else {
		w.b = append(w.b, 0)
	}
	return off
}

func (w *wireBuilder) question() {
	w.b = append(w.b, 0, byte(TypeA), 0, byte(ClassINET))
}

// answer appends the type, class, TTL and a 4-byte A RDATA that follow an
// owner name.
func (w *wireBuilder) answer() {
	w.b = append(w.b, 0, byte(TypeA), 0, byte(ClassINET), 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
}

// TestOwnerNameSharing: an owner name that is the pointer 0xC00C takes the
// first question's decoded string, and every owner decodes exactly what
// readName decodes at its offset — pointers to offset 12, to other
// offsets, after a mixed-case question, and in messages whose offset 12 is
// no plain question name.
func TestOwnerNameSharing(t *testing.T) {
	mixed := newWire(1, 4)
	mixed.name(-1, "WWW", "Example", "ORG")
	mixed.question()
	var owners []int
	owners = append(owners, mixed.name(12))
	mixed.answer()
	owners = append(owners, mixed.name(16)) // "example.org." inside the question
	mixed.answer()
	other := mixed.name(-1, "Other", "EXAMPLE")
	owners = append(owners, other)
	mixed.answer()
	owners = append(owners, mixed.name(other)) // a pointer that is not 0xC00C
	mixed.answer()

	// No question: offset 12 is the first answer's owner.
	noQuestion := newWire(0, 2)
	bare := []int{noQuestion.name(-1, "Bare", "example")}
	noQuestion.answer()
	bare = append(bare, noQuestion.name(12))
	noQuestion.answer()

	// A question name that is itself a pointer, into the header's ID.
	compressed := newWire(1, 1)
	compressed.b[0], compressed.b[1] = 0, 0 // the ID reads as the root name
	compressed.name(0)
	compressed.question()
	viaHeader := []int{compressed.name(12)}
	compressed.answer()

	for _, tc := range []struct {
		name   string
		msg    []byte
		owners []int
		shared bool // the 0xC00C owner shares the question's string
	}{
		{"mixed-case question", mixed.b, owners, true},
		{"no question", noQuestion.b, bare, false},
		{"compressed question", compressed.b, viaHeader, false},
	} {
		m, err := Unpack(tc.msg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(m.Answers) != len(tc.owners) {
			t.Fatalf("%s: %d answers, want %d", tc.name, len(m.Answers), len(tc.owners))
		}
		for i, off := range tc.owners {
			want, _, err := readName(tc.msg, off)
			if err != nil {
				t.Fatalf("%s: readName at %d: %v", tc.name, off, err)
			}
			if got := m.Answers[i].Name; got != want {
				t.Errorf("%s: answer %d owner %q, readName decodes %q", tc.name, i, got, want)
			}
		}
		if !tc.shared {
			continue
		}
		if q := m.Question1().Name; q != "www.example.org." {
			t.Errorf("%s: question %q, want it lower-cased", tc.name, q)
		}
		if unsafe.StringData(m.Answers[0].Name) != unsafe.StringData(m.Question1().Name) {
			t.Errorf("%s: the 0xC00C owner is a second copy of the question's name", tc.name)
		}
		for i := 1; i < len(m.Answers); i++ {
			if unsafe.StringData(m.Answers[i].Name) == unsafe.StringData(m.Question1().Name) {
				t.Errorf("%s: answer %d, whose owner is not 0xC00C, shares the question's name", tc.name, i)
			}
		}
	}
}
