package doq

import (
	"bytes"
	"context"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
)

// FuzzServerPacket feeds arbitrary datagrams to the server's packet
// handler, which answers whatever arrives on UDP/853. It must not panic,
// and every response it sends must parse as a QUIC header followed by one
// or more well-formed frames. The seeds are the packets of a real session,
// whole and truncated: the Initial and a short-header query of a fresh
// dial, then the 0-RTT query of a dial that resumed from its ticket. Every
// input meets the one server that answered those packets, right after a
// replay of the Initial, so the short header's connection is known. State
// carries between inputs; the connection table's cap keeps it bounded.
func FuzzServerPacket(f *testing.F) {
	ca, err := certs.NewCA("DoE Root", true)
	if err != nil {
		f.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{CommonName: "dns.provider.example"})
	if err != nil {
		f.Fatal(err)
	}
	zone := dnsserver.NewZone("measure.example.org")
	zone.WildcardA = answerIP
	srv := &Server{leaf: leaf, handler: zone, addr: doqIP, conns: make(map[[connKeyLen]byte]*serverConn)}
	var packets [][]byte
	capture := func(req []byte) ([]byte, time.Duration, error) {
		packets = append(packets, bytes.Clone(req))
		return srv.handlePacket(clientIP, req)
	}
	c := &Client{Roots: certs.Pool(ca), SessionCache: NewSessionCache()}
	for i := 0; i < 2; i++ {
		conn, err := c.DialVia(context.Background(), doqIP, capture)
		if err != nil {
			f.Fatal(err)
		}
		if _, err := conn.Query("probe.measure.example.org", dnswire.TypeA); err != nil {
			f.Fatal(err)
		}
		conn.Close()
	}
	kinds := []dnswire.QUICPacketType{dnswire.QUICInitial, dnswire.QUICOneRTT, dnswire.QUICZeroRTT}
	if len(packets) != len(kinds) {
		f.Fatalf("captured %d packets, want %d", len(packets), len(kinds))
	}
	for i, p := range packets {
		if h, _, err := dnswire.ParseQUICHeader(p); err != nil || h.Type != kinds[i] {
			f.Fatalf("packet %d: type %v (%v), want %v", i, h.Type, err, kinds[i])
		}
		for n := 0; n <= len(p); n++ {
			f.Add(p[:n])
		}
	}
	initial := packets[0]

	f.Fuzz(func(t *testing.T, pkt []byte) {
		if _, _, err := srv.handlePacket(clientIP, initial); err != nil {
			t.Fatalf("replayed Initial: %v", err)
		}
		resp, _, err := srv.handlePacket(clientIP, pkt)
		if err != nil {
			return
		}
		_, n, err := dnswire.ParseQUICHeader(resp)
		if err != nil {
			t.Fatalf("response %x: header: %v", resp, err)
		}
		if n == len(resp) {
			t.Fatalf("response %x carries no frame", resp)
		}
		for n < len(resp) {
			_, adv, err := dnswire.ParseQUICFrame(resp[n:])
			if err != nil {
				t.Fatalf("response %x: frame at %d: %v", resp, n, err)
			}
			n += adv
		}
	})
}
