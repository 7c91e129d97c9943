package dnscrypt

import (
	"bytes"
	"crypto/ed25519"
	"encoding/binary"
	"testing"

	"dnsencryption.info/doe/internal/certs"
)

// FuzzParseCert feeds arbitrary bytes to the certificate parser, which the
// client runs on whatever TXT record the path returns. The parser must not
// panic and must accept a cert exactly when it carries the DNSC magic,
// es-version 1, an Ed25519 signature by the provider over the rest, and a
// validity window holding certs.RefTime; what it accepts must be the
// signed content.
func FuzzParseCert(f *testing.F) {
	// The server's own cert fields, signed by a fixed provider key so every
	// corpus entry replays against the same key.
	srv, _, err := NewServer("opendns.probe.test", nil)
	if err != nil {
		f.Fatal(err)
	}
	providerSK := ed25519.NewKeyFromSeed(bytes.Repeat([]byte{0x5a}, ed25519.SeedSize))
	providerPK := providerSK.Public().(ed25519.PublicKey)
	wire := srv.Cert.Marshal(providerSK)
	f.Add(wire)
	for n := 0; n < len(wire); n++ {
		f.Add(wire[:n])
	}
	relabelled := bytes.Clone(wire)
	binary.BigEndian.PutUint16(relabelled[4:], 2)
	f.Add(relabelled) // es-version 2 under a signature that still verifies
	expired := srv.Cert
	expired.NotBefore, expired.NotAfter = certs.RefTime.AddDate(-2, 0, 0), certs.RefTime.AddDate(-1, 0, 0)
	f.Add(expired.Marshal(providerSK))

	f.Fuzz(func(t *testing.T, raw []byte) {
		c, err := ParseCert(raw, providerPK, certs.RefTime)
		valid := len(raw) >= len(wire) && bytes.Equal(raw[:4], certMagic[:]) &&
			binary.BigEndian.Uint16(raw[4:]) == esVersionXSalsa20 &&
			ed25519.Verify(providerPK, raw[72:], raw[8:72])
		if valid {
			content := raw[72:]
			notBefore := int64(binary.BigEndian.Uint32(content[44:]))
			notAfter := int64(binary.BigEndian.Uint32(content[48:]))
			ref := certs.RefTime.Unix()
			valid = notBefore <= ref && ref <= notAfter
		}
		if (err == nil) != valid {
			t.Fatalf("ParseCert of a cert that is valid (%v) returned error %v", valid, err)
		}
		if err != nil {
			if c != nil {
				t.Fatalf("ParseCert returned a cert beside error %v", err)
			}
			return
		}
		if c.ESVersion != esVersionXSalsa20 {
			t.Fatalf("accepted cert reports es-version %d", c.ESVersion)
		}
		if got := c.marshalSignedContent(); !bytes.Equal(got, raw[72:72+len(got)]) {
			t.Fatalf("parsed fields re-encode to %x, signed content is %x", got, raw[72:])
		}
	})
}
