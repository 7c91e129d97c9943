package dnscrypt

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net/netip"
	"testing"
	"testing/quick"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

// TestQuarterRound checks the example from the Salsa20 specification.
func TestQuarterRound(t *testing.T) {
	z0, z1, z2, z3 := quarterRound(0x00000001, 0, 0, 0)
	want := [4]uint32{0x08008145, 0x00000080, 0x00010200, 0x20500000}
	if z0 != want[0] || z1 != want[1] || z2 != want[2] || z3 != want[3] {
		t.Errorf("quarterRound = %08x %08x %08x %08x, want %08x", z0, z1, z2, z3, want)
	}
}

// TestPoly1305RFCVector checks the RFC 8439 §2.5.2 test vector.
func TestPoly1305RFCVector(t *testing.T) {
	keyHex := "85d6be7857556d337f4452fe42d506a80103808afb0db2fd4abff6af4149f51b"
	msg := []byte("Cryptographic Forum Research Group")
	wantHex := "a8061dc1305136c6c22b8baf0c0127a9"
	var key [32]byte
	kb, _ := hex.DecodeString(keyHex)
	copy(key[:], kb)
	tag := poly1305(msg, &key)
	if got := hex.EncodeToString(tag[:]); got != wantHex {
		t.Errorf("poly1305 = %s, want %s", got, wantHex)
	}
}

func TestSalsa20BlockDeterministicAndCounterSensitive(t *testing.T) {
	var key [32]byte
	var nonce [8]byte
	copy(key[:], bytes.Repeat([]byte{7}, 32))
	var b0a, b0b, b1 [64]byte
	salsa20Block(&key, &nonce, 0, &b0a)
	salsa20Block(&key, &nonce, 0, &b0b)
	salsa20Block(&key, &nonce, 1, &b1)
	if b0a != b0b {
		t.Error("block not deterministic")
	}
	if b0a == b1 {
		t.Error("counter has no effect")
	}
}

func TestSecretboxRoundTrip(t *testing.T) {
	var key [32]byte
	var nonce [24]byte
	rand.Read(key[:])   //nolint:errcheck
	rand.Read(nonce[:]) //nolint:errcheck
	msg := []byte("attack at dawn — DNS query inside")
	sealed := SecretboxSeal(msg, &nonce, &key)
	if len(sealed) != len(msg)+16 {
		t.Fatalf("sealed length = %d", len(sealed))
	}
	got, err := SecretboxOpen(sealed, &nonce, &key)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, msg) {
		t.Errorf("roundtrip mismatch: %q", got)
	}
}

func TestSecretboxTamperDetected(t *testing.T) {
	var key [32]byte
	var nonce [24]byte
	sealed := SecretboxSeal([]byte("payload"), &nonce, &key)
	for i := range sealed {
		mutated := append([]byte{}, sealed...)
		mutated[i] ^= 0x01
		if _, err := SecretboxOpen(mutated, &nonce, &key); err == nil {
			t.Fatalf("tamper at byte %d not detected", i)
		}
	}
	if _, err := SecretboxOpen([]byte{1, 2}, &nonce, &key); err == nil {
		t.Error("short box accepted")
	}
}

func TestQuickSecretboxRoundTrip(t *testing.T) {
	f := func(msg []byte, keySeed, nonceSeed uint64) bool {
		var key [32]byte
		var nonce [24]byte
		for i := range key {
			key[i] = byte(keySeed >> (i % 8 * 8))
		}
		for i := range nonce {
			nonce[i] = byte(nonceSeed >> (i % 8 * 8))
		}
		sealed := SecretboxSeal(msg, &nonce, &key)
		got, err := SecretboxOpen(sealed, &nonce, &key)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBoxSharedKeyAgreement(t *testing.T) {
	alice, err := NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	bob, err := NewKeyPair()
	if err != nil {
		t.Fatal(err)
	}
	k1, err := alice.SharedKey(&bob.Public)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := bob.SharedKey(&alice.Public)
	if err != nil {
		t.Fatal(err)
	}
	if *k1 != *k2 {
		t.Error("X25519 key agreement mismatch")
	}
	eve, _ := NewKeyPair()
	k3, _ := eve.SharedKey(&bob.Public)
	if *k3 == *k1 {
		t.Error("third party derived the same key")
	}
}

func TestPadUnpad(t *testing.T) {
	f := func(msg []byte) bool {
		padded := appendPad(append([]byte(nil), msg...))
		if len(padded)%64 != 0 {
			return false
		}
		got, err := unpad(padded)
		return err == nil && bytes.Equal(got, msg)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
	if _, err := unpad(bytes.Repeat([]byte{0}, 64)); err == nil {
		t.Error("all-zero padding accepted")
	}
}

func TestCertRoundTripAndValidation(t *testing.T) {
	pk, sk, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cert := Cert{
		ESVersion: esVersionXSalsa20,
		Serial:    7,
		NotBefore: certs.RefTime.AddDate(0, -1, 0),
		NotAfter:  certs.RefTime.AddDate(0, 1, 0),
	}
	rand.Read(cert.ResolverPK[:])  //nolint:errcheck
	rand.Read(cert.ClientMagic[:]) //nolint:errcheck
	wire := cert.Marshal(sk)

	got, err := ParseCert(wire, pk, certs.RefTime)
	if err != nil {
		t.Fatal(err)
	}
	if got.Serial != 7 || got.ResolverPK != cert.ResolverPK || got.ClientMagic != cert.ClientMagic {
		t.Errorf("parsed cert = %+v", got)
	}

	// Wrong provider key: rejected.
	otherPK, _, _ := ed25519.GenerateKey(rand.Reader)
	if _, err := ParseCert(wire, otherPK, certs.RefTime); err == nil {
		t.Error("cert accepted under wrong provider key")
	}
	// Outside validity window: rejected.
	if _, err := ParseCert(wire, pk, certs.RefTime.AddDate(1, 0, 0)); err == nil {
		t.Error("expired cert accepted")
	}
	// Tampered content: rejected.
	wire[80] ^= 1
	if _, err := ParseCert(wire, pk, certs.RefTime); err == nil {
		t.Error("tampered cert accepted")
	}
}

// TestCertRejectsUnsupportedESVersion: the es-version field sits outside
// the Ed25519-signed content, so a cert relabelled on the path still
// carries a verifying signature. Only X25519-XSalsa20Poly1305, the one
// construction the client seals, is accepted.
func TestCertRejectsUnsupportedESVersion(t *testing.T) {
	pk, sk, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	cert := Cert{
		ESVersion: esVersionXSalsa20,
		Serial:    1,
		NotBefore: certs.RefTime.AddDate(0, -6, 0),
		NotAfter:  certs.RefTime.AddDate(0, 6, 0),
	}
	wire := cert.Marshal(sk)
	if _, err := ParseCert(wire, pk, certs.RefTime); err != nil {
		t.Fatalf("es-version 1 cert rejected: %v", err)
	}
	for _, es := range []uint16{0, 2, 0xffff} {
		relabelled := bytes.Clone(wire)
		binary.BigEndian.PutUint16(relabelled[4:], es)
		if _, err := ParseCert(relabelled, pk, certs.RefTime); !errors.Is(err, ErrBadCert) {
			t.Errorf("cert relabelled to es-version %d: err = %v, want ErrBadCert", es, err)
		}
	}
	// Signed as es-version 2 by the provider itself: still not a
	// construction the client speaks.
	cert.ESVersion = 2
	if _, err := ParseCert(cert.Marshal(sk), pk, certs.RefTime); !errors.Is(err, ErrBadCert) {
		t.Errorf("signed es-version 2 cert: err = %v, want ErrBadCert", err)
	}
}

// endToEnd spins a DNSCrypt server and client on a test world.
func endToEnd(t *testing.T) (*Client, netip.Addr) {
	t.Helper()
	w := netsim.NewWorld(5)
	clientIP := netip.MustParseAddr("10.0.0.2")
	resolverIP := netip.MustParseAddr("192.0.2.44")
	w.Geo.Register(netip.MustParsePrefix("10.0.0.0/24"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "FR"})

	zone := dnsserver.NewZone("crypt.example.test")
	zone.WildcardA = netip.MustParseAddr("203.0.113.44")
	srv, providerPK, err := NewServer("example-provider.test", zone)
	if err != nil {
		t.Fatal(err)
	}
	w.RegisterDatagram(resolverIP, Port, srv.DatagramHandler())

	c, err := NewClient(w, clientIP, "example-provider.test", providerPK)
	if err != nil {
		t.Fatal(err)
	}
	return c, resolverIP
}

func TestEndToEndQuery(t *testing.T) {
	c, resolver := endToEnd(t)
	if err := c.FetchCertContext(context.Background(), resolver); err != nil {
		t.Fatalf("FetchCertContext: %v", err)
	}
	res, err := c.QueryContext(context.Background(), resolver, "host.crypt.example.test", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != netip.MustParseAddr("203.0.113.44") {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
	if res.Latency <= 0 {
		t.Error("latency not accounted")
	}
}

func TestQueryWithoutCertFails(t *testing.T) {
	c, resolver := endToEnd(t)
	if _, err := c.QueryContext(context.Background(), resolver, "x.crypt.example.test", dnswire.TypeA); err != ErrNoCert {
		t.Errorf("err = %v, want ErrNoCert", err)
	}
}

func TestWrongProviderKeyRejected(t *testing.T) {
	c, resolver := endToEnd(t)
	otherPK, _, _ := ed25519.GenerateKey(rand.Reader)
	c.ProviderPK = otherPK
	if err := c.FetchCertContext(context.Background(), resolver); err == nil {
		t.Error("cert fetched and verified under wrong provider key")
	}
}

func TestMultipleQueriesFreshNonces(t *testing.T) {
	c, resolver := endToEnd(t)
	if err := c.FetchCertContext(context.Background(), resolver); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := c.QueryContext(context.Background(), resolver, "multi.crypt.example.test", dnswire.TypeA); err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
	}
}

func TestCertValidityAnchoredToStudyTime(t *testing.T) {
	c, resolver := endToEnd(t)
	c.Now = time.Date(2030, 1, 1, 0, 0, 0, 0, time.UTC)
	if err := c.FetchCertContext(context.Background(), resolver); err == nil {
		t.Error("cert accepted far outside its validity window")
	}
}
