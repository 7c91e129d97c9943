package dnswire

import (
	"errors"
	"strings"
)

// Errors returned by the name codec.
var (
	ErrNameTooLong    = errors.New("dnswire: name exceeds 255 octets")
	ErrLabelTooLong   = errors.New("dnswire: label exceeds 63 octets")
	ErrEmptyLabel     = errors.New("dnswire: empty label in name")
	ErrBadPointer     = errors.New("dnswire: bad compression pointer")
	ErrPointerLoop    = errors.New("dnswire: compression pointer loop")
	ErrBufferTooSmall = errors.New("dnswire: buffer too small")
)

const (
	maxNameLen  = 255
	maxLabelLen = 63
	// maxPointers bounds pointer chasing; a legitimate name can need at
	// most one pointer per label, and names have at most 127 labels.
	maxPointers = 127
)

// CanonicalName lower-cases a domain name and ensures it ends with a dot,
// the canonical form used throughout this repository for map keys.
func CanonicalName(s string) string {
	s = strings.ToLower(s)
	if s == "" || s == "." {
		return "."
	}
	if !strings.HasSuffix(s, ".") {
		s += "."
	}
	return s
}

// IsSubdomain reports whether child equals parent or falls under it.
// Both arguments are canonicalized first.
func IsSubdomain(child, parent string) bool {
	child, parent = CanonicalName(child), CanonicalName(parent)
	if parent == "." {
		return true
	}
	return child == parent || strings.HasSuffix(child, "."+parent)
}

// validateName checks the per-label and total length restrictions of a
// canonical name without splitting it into a label slice. Per-label errors
// take precedence over the total-length error, matching the historical
// splitLabels behavior.
func validateName(name string) error {
	for pos := 0; pos < len(name); {
		dot := strings.IndexByte(name[pos:], '.')
		if dot == 0 {
			return ErrEmptyLabel
		}
		if dot > maxLabelLen {
			return ErrLabelTooLong
		}
		pos += dot + 1
	}
	// A canonical name's wire form costs len(name)+1 octets: each label's
	// length byte stands in for its trailing dot, plus the root byte.
	if len(name)+1 > maxNameLen {
		return ErrNameTooLong
	}
	return nil
}

// appendName appends the wire encoding of name to buf. If ps is non-nil it
// performs RFC 1035 §4.1.4 compression: suffixes already emitted earlier in
// the message are replaced by a 2-byte pointer, and newly emitted suffixes
// at message-relative offsets representable in 14 bits are recorded for
// later reuse.
//
// The steady-state path allocates nothing: labels are walked in place with
// IndexByte and the compression keys are suffix substrings of the canonical
// name, which produce exactly the keys the label-joining implementation
// used, so compression decisions — and the packed bytes — are unchanged.
func appendName(buf []byte, name string, ps *packState) ([]byte, error) {
	name = CanonicalName(name)
	if name == "." {
		return append(buf, 0), nil
	}
	if err := validateName(name); err != nil {
		return nil, err
	}
	for pos := 0; pos < len(name); {
		suffix := name[pos:]
		if ps != nil {
			if off, ok := ps.off[suffix]; ok {
				return append(buf, byte(0xC0|off>>8), byte(off)), nil
			}
			if off := len(buf) - ps.base; off < 0x3FFF {
				ps.off[suffix] = off
			}
		}
		n := strings.IndexByte(suffix, '.')
		buf = append(buf, byte(n))
		buf = append(buf, suffix[:n]...)
		pos += n + 1
	}
	return append(buf, 0), nil
}

// readName decodes a possibly compressed name starting at off within msg.
// It returns the canonical presentation form and the offset of the first
// byte after the name's in-place encoding (pointers are followed but do not
// advance the cursor).
func readName(msg []byte, off int) (string, int, error) {
	// Names are capped at 255 presentation octets, so the label bytes
	// accumulate in a fixed stack buffer and the only allocation is the
	// final string copy. Lower-casing happens as bytes are copied in.
	var name [maxNameLen]byte
	n := 0
	ptrCount := 0
	cursor := off
	// end tracks where parsing resumes; set the first time a pointer is taken.
	end := -1
	for {
		if cursor >= len(msg) {
			return "", 0, ErrBufferTooSmall
		}
		c := msg[cursor]
		switch {
		case c == 0:
			cursor++
			if end < 0 {
				end = cursor
			}
			if n == 0 {
				return ".", end, nil
			}
			return string(name[:n]), end, nil
		case c&0xC0 == 0xC0:
			if cursor+1 >= len(msg) {
				return "", 0, ErrBufferTooSmall
			}
			ptr := int(c&0x3F)<<8 | int(msg[cursor+1])
			if end < 0 {
				end = cursor + 2
			}
			if ptr >= cursor || ptr >= len(msg) {
				return "", 0, ErrBadPointer
			}
			ptrCount++
			if ptrCount > maxPointers {
				return "", 0, ErrPointerLoop
			}
			cursor = ptr
		case c&0xC0 != 0:
			return "", 0, ErrBadPointer
		default:
			if cursor+1+int(c) > len(msg) {
				return "", 0, ErrBufferTooSmall
			}
			if n+int(c)+1 > maxNameLen {
				return "", 0, ErrNameTooLong
			}
			for _, ch := range msg[cursor+1 : cursor+1+int(c)] {
				if 'A' <= ch && ch <= 'Z' {
					ch += 'a' - 'A'
				}
				name[n] = ch
				n++
			}
			name[n] = '.'
			n++
			cursor += 1 + int(c)
		}
	}
}

// uncompressed reports whether the name at off, which readName has already
// decoded, is encoded without a compression pointer.
func uncompressed(msg []byte, off int) bool {
	for c := msg[off]; c != 0; c = msg[off] {
		if c&0xC0 != 0 {
			return false
		}
		off += 1 + int(c)
	}
	return true
}
