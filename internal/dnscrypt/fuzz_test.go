package dnscrypt

import (
	"bytes"
	"context"
	"crypto/ecdh"
	"crypto/ed25519"
	"encoding/binary"
	"net/netip"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
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

// fixedKeyPair is the X25519 key pair whose private key is 32 bytes of b,
// so a fuzz corpus replays against the same keys in every run.
func fixedKeyPair(tb testing.TB, b byte) *KeyPair {
	tb.Helper()
	priv, err := ecdh.X25519().NewPrivateKey(bytes.Repeat([]byte{b}, 32))
	if err != nil {
		tb.Fatal(err)
	}
	kp := &KeyPair{priv: priv}
	copy(kp.Public[:], priv.PublicKey().Bytes())
	return kp
}

// fuzzServer is a DNSCrypt server with a fixed resolver key and client
// magic that answers every name under crypt.example.test.
func fuzzServer(tb testing.TB) *Server {
	tb.Helper()
	zone := dnsserver.NewZone("crypt.example.test")
	zone.WildcardA = netip.MustParseAddr("203.0.113.44")
	srv, _, err := NewServer("example-provider.test", zone)
	if err != nil {
		tb.Fatal(err)
	}
	srv.resolverKP = fixedKeyPair(tb, 0x11)
	srv.Cert.ResolverPK = srv.resolverKP.Public
	srv.Cert.ClientMagic = [8]byte{'f', 'u', 'z', 'z', 'm', 'a', 'g', 'c'}
	return srv
}

// sealQuery builds an encrypted query the way Client.QueryContext does:
// client magic, client public key, the client half of the nonce, then the
// padded query sealed under the key kp shares with the server.
func sealQuery(tb testing.TB, srv *Server, kp *KeyPair, clientNonce [12]byte, id uint16) []byte {
	tb.Helper()
	shared, err := kp.SharedKey(&srv.Cert.ResolverPK)
	if err != nil {
		tb.Fatal(err)
	}
	packed, err := dnswire.NewQuery(id, "host.crypt.example.test", dnswire.TypeA).Pack()
	if err != nil {
		tb.Fatal(err)
	}
	var nonce [24]byte
	copy(nonce[:12], clientNonce[:])
	msg := append([]byte(nil), srv.Cert.ClientMagic[:]...)
	msg = append(msg, kp.Public[:]...)
	msg = append(msg, clientNonce[:]...)
	return SecretboxSealAppend(msg, appendPad(packed), &nonce, shared)
}

// FuzzServeEncrypted feeds arbitrary datagrams to the server's one UDP
// handler; those that carry the client magic reach the encrypted path,
// which opens the box with the key the datagram's client key shares with
// the resolver. The handler must not panic, and every encrypted query it
// answers must get a reply that starts with the resolver magic, whose nonce
// starts with the query's 12-byte client half, and whose box opens under
// the same shared key to a padded message with the query's ID.
func FuzzServeEncrypted(f *testing.F) {
	srv := fuzzServer(f)
	sealed := sealQuery(f, srv, fixedKeyPair(f, 0x22), [12]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, 0x1234)
	for n := 0; n <= len(sealed); n++ {
		f.Add(sealed[:n])
	}
	handler := srv.DatagramHandler()
	from := netip.MustParseAddr("10.0.0.2")

	f.Fuzz(func(t *testing.T, req []byte) {
		reply, _, err := handler(from, req)
		if err != nil || len(req) < 8 || !bytes.Equal(req[:8], srv.Cert.ClientMagic[:]) {
			return
		}
		if len(reply) < 8+24+16 || !bytes.Equal(reply[:8], resolverMagic[:]) {
			t.Fatalf("reply to an accepted query lacks the resolver magic: %x", reply)
		}
		if !bytes.Equal(reply[8:20], req[40:52]) {
			t.Fatalf("reply nonce %x does not start with the query's client half %x", reply[8:32], req[40:52])
		}
		var clientPK [32]byte
		copy(clientPK[:], req[8:40])
		shared, err := srv.resolverKP.SharedKey(&clientPK)
		if err != nil {
			t.Fatalf("accepted a query whose client key agrees no key: %v", err)
		}
		var queryNonce [24]byte
		copy(queryNonce[:12], req[40:52])
		query, err := SecretboxOpen(req[52:], &queryNonce, shared)
		if err != nil {
			t.Fatalf("accepted a query that does not open: %v", err)
		}
		var replyNonce [24]byte
		copy(replyNonce[:], reply[8:32])
		padded, err := SecretboxOpen(reply[32:], &replyNonce, shared)
		if err != nil {
			t.Fatalf("reply does not open under the query's shared key: %v", err)
		}
		if len(padded)%64 != 0 {
			t.Fatalf("reply plaintext is %d bytes, not padded to 64", len(padded))
		}
		plain, err := unpad(padded)
		if err != nil {
			t.Fatalf("reply plaintext: %v", err)
		}
		m, err := dnswire.Unpack(plain)
		if err != nil {
			t.Fatalf("reply plaintext is no DNS message: %v", err)
		}
		if want := binary.BigEndian.Uint16(query); m.ID != want {
			t.Fatalf("reply ID %#04x, query ID %#04x", m.ID, want)
		}
	})
}

// FuzzClientReply feeds arbitrary replies to the client's encrypted query.
// A datagram service answers each query with the fuzz input, its bytes
// 8–19 overwritten with the query's client nonce half so that the reply
// passes the nonce check and reaches the box open. A reply sealed under
// another nonce never authenticates, so when reseal is set the service
// instead seals the input's bytes from 32 on under the reply's nonce and
// the session key, after XORing the query's ID into their first two
// bytes: zeros there answer with the query's ID, anything else with
// another. The client then unpads and parses what it opens. QueryContext
// must not panic, and every reply it accepts must carry the query's ID.
func FuzzClientReply(f *testing.F) {
	srv := fuzzServer(f)
	w := netsim.NewWorld(5)
	clientIP := netip.MustParseAddr("10.0.0.2")
	resolverIP := netip.MustParseAddr("192.0.2.44")
	w.Geo.Register(netip.MustParsePrefix("10.0.0.0/24"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "FR"})
	c, err := NewClient(w, clientIP, "example-provider.test", nil)
	if err != nil {
		f.Fatal(err)
	}
	c.kp = fixedKeyPair(f, 0x22)
	c.cert = &srv.Cert
	shared, err := c.kp.SharedKey(&srv.Cert.ResolverPK)
	if err != nil {
		f.Fatal(err)
	}

	// The server's genuine reply to one query, whole and truncated, and
	// the same reply with its box opened, for the service to reseal.
	reply, _, err := srv.DatagramHandler()(clientIP, sealQuery(f, srv, c.kp, [12]byte{7}, 0x4321))
	if err != nil {
		f.Fatal(err)
	}
	var nonce [24]byte
	copy(nonce[:], reply[8:32])
	padded, err := SecretboxOpen(reply[32:], &nonce, shared)
	if err != nil {
		f.Fatal(err)
	}
	opened := append(bytes.Clone(reply[:32]), padded...)
	binary.BigEndian.PutUint16(opened[32:], 0) // answer with the query's ID
	for n := 0; n <= len(reply); n++ {
		f.Add(reply[:n], false)
	}
	for n := 0; n <= len(opened); n++ {
		f.Add(opened[:n], true)
	}
	otherID := bytes.Clone(opened)
	otherID[33] = 1
	f.Add(otherID, true)

	f.Fuzz(func(t *testing.T, reply []byte, reseal bool) {
		var queryID uint16
		w.RegisterDatagram(resolverIP, Port, func(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
			var nonce [24]byte
			copy(nonce[:12], req[40:52])
			query, err := SecretboxOpen(req[52:], &nonce, shared)
			if err != nil {
				return nil, 0, err
			}
			queryID = binary.BigEndian.Uint16(query)
			out := bytes.Clone(reply)
			if len(out) >= 20 {
				copy(out[8:20], req[40:52])
			}
			if reseal && len(out) >= 32 {
				plain := bytes.Clone(out[32:])
				if len(plain) >= 2 {
					binary.BigEndian.PutUint16(plain, binary.BigEndian.Uint16(plain)^queryID)
				}
				copy(nonce[:], out[8:32])
				out = SecretboxSealAppend(out[:32], plain, &nonce, shared)
			}
			return out, time.Millisecond, nil
		})
		res, err := c.QueryContext(context.Background(), resolverIP, "host.crypt.example.test", dnswire.TypeA)
		if err != nil {
			return
		}
		if res.Msg.ID != queryID {
			t.Fatalf("accepted reply carries ID %#04x, the query %#04x", res.Msg.ID, queryID)
		}
	})
}
