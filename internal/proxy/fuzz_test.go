package proxy

import (
	"encoding/binary"
	"fmt"
	"io"
	"net/netip"
	"slices"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/netsim"
)

// feed is how a fuzz target sends the peer's bytes: in one segment, one
// byte per segment, or in halves, each segment half of what remains.
type feed int

const (
	feedWhole feed = iota
	feedOneByte
	feedHalves
)

func (f feed) String() string {
	return [...]string{"whole", "one byte per segment", "halves"}[f]
}

// fuzzPair returns a conn for the side under test and its peer, with data
// already queued from the peer in f's segments. The side's read deadline
// has passed, so once data runs out its reads fail with ErrDeadline where
// a live peer would leave them blocked.
func fuzzPair(t *testing.T, f feed, data []byte) (side, peer *netsim.Conn) {
	side, peer = netsim.Pair(
		netsim.Addr{IP: netip.MustParseAddr("10.0.0.1"), Port: 50000},
		netsim.Addr{IP: netip.MustParseAddr("10.0.0.2"), Port: 1080},
		time.Millisecond, nil, 0)
	for len(data) > 0 {
		n := len(data)
		switch f {
		case feedOneByte:
			n = 1
		case feedHalves:
			n = (n + 1) / 2
		}
		if _, err := peer.Write(data[:n]); err != nil {
			t.Fatal(err)
		}
		data = data[n:]
	}
	side.SetReadDeadline(time.Unix(1, 0))
	return side, peer
}

// readToClose reads what the side under test wrote to peer until the side
// closes, which it must do cleanly: EOF, not a reset or a hang.
func readToClose(t *testing.T, peer *netsim.Conn) []byte {
	defer peer.Close()
	peer.SetReadDeadline(time.Now().Add(5 * time.Second))
	out, err := io.ReadAll(peer)
	if err != nil {
		t.Fatalf("reading until the side under test closes: %v", err)
	}
	return out
}

// fuzzFeeds runs one fuzz input through each feed and requires the same
// outcome from all three.
func fuzzFeeds(t *testing.T, run func(feed) string) {
	whole := run(feedWhole)
	for _, f := range []feed{feedOneByte, feedHalves} {
		if got := run(f); got != whole {
			t.Errorf("%v:\n%s\nwhole:\n%s", f, got, whole)
		}
	}
}

// socksServerOutcome runs ServeConn over data fed as f and renders what it
// did: the requests it dialed, what it relayed to the target, and what it
// wrote back. Even ports dial a sink that keeps what the relay forwards;
// odd ports are refused.
func socksServerOutcome(t *testing.T, f feed, data []byte, requireAuth bool) string {
	conn, client := fuzzPair(t, f, data)
	var dialed []Request
	relayed := make(chan []byte, 1)
	dial := func(req Request) (*netsim.Conn, error) {
		dialed = append(dialed, req)
		if req.Port%2 == 1 {
			return nil, netsim.ErrRefused
		}
		down, sink := netsim.Pair(
			netsim.Addr{IP: netip.MustParseAddr("10.0.0.2"), Port: 40000},
			netsim.Addr{IP: req.Target, Port: req.Port},
			time.Millisecond, nil, 0)
		go func() {
			b, _ := io.ReadAll(sink)
			sink.Close()
			relayed <- b
		}()
		return down, nil
	}
	ServeConn(conn, requireAuth, dial)
	out := fmt.Sprintf("dialed %+v\nwrote %x", dialed, readToClose(t, client))
	if len(dialed) > 0 && dialed[0].Port%2 == 0 {
		out += fmt.Sprintf("\nrelayed %x", <-relayed)
	}
	return out
}

// FuzzSOCKS5Server feeds arbitrary client bytes to the SOCKS5 server. It
// must not panic, must close the session cleanly, and must dial, relay
// and reply the same however the bytes are segmented.
func FuzzSOCKS5Server(f *testing.F) {
	connect := func(atyp byte, addr []byte, port uint16) []byte {
		req := append([]byte{socksVersion, cmdConnect, 0, atyp}, addr...)
		return binary.BigEndian.AppendUint16(req, port)
	}
	v4 := connect(atypIPv4, []byte{192, 0, 2, 1}, 80)
	auth := []byte{socksVersion, 1, authUserPass, 1, 7, 'n', 'o', 'd', 'e', '-', '4', '2', 2, 'p', 'w'}
	f.Add(slices.Concat([]byte{socksVersion, 1, authNone}, v4, []byte("payload")), false)
	f.Add(slices.Concat(auth, v4, []byte("payload")), true)
	f.Add(slices.Concat(auth, connect(atypDomain, append([]byte{11}, "dns.example"...), 853)), true)
	f.Add(slices.Concat([]byte{socksVersion, 2, authNone, authUserPass}, connect(atypIPv6, netip.MustParseAddr("2001:db8::53").AsSlice(), 443)), false)
	f.Add(slices.Concat([]byte{socksVersion, 1, authNone}, []byte{socksVersion, 2, 0, atypIPv4, 192, 0, 2, 1, 0, 80}), false)
	f.Add([]byte{socksVersion, 1, authNone}, true)
	f.Add([]byte{4, 1, 0}, false)
	f.Add(v4[:5], false)
	f.Fuzz(func(t *testing.T, data []byte, requireAuth bool) {
		fuzzFeeds(t, func(f feed) string { return socksServerOutcome(t, f, data, requireAuth) })
	})
}

// socksClientOutcome runs ClientConnect over server bytes data fed as f
// and renders what it did: its result, what it wrote, and the bytes it
// left for the tunnel.
func socksClientOutcome(t *testing.T, f feed, data []byte, auth bool) string {
	conn, server := fuzzPair(t, f, data)
	var creds *Credentials
	if auth {
		creds = &Credentials{Username: "node-42", Password: "measurement"}
	}
	err := ClientConnect(conn, creds, netip.MustParseAddr("192.0.2.1"), 853)
	tunnel, rest := io.ReadAll(conn)
	conn.Close()
	return fmt.Sprintf("%v\nwrote %x\ntunnel %x, then %v", err, readToClose(t, server), tunnel, rest)
}

// FuzzSOCKS5Client feeds arbitrary server bytes to the SOCKS5 client. It
// must not panic, must consume exactly the handshake, and must end the
// same however the bytes are segmented.
func FuzzSOCKS5Client(f *testing.F) {
	success := []byte{socksVersion, repSuccess, 0, atypIPv4, 0, 0, 0, 0, 0, 0}
	f.Add(slices.Concat([]byte{socksVersion, authNone}, success, []byte("tunnel")), false)
	f.Add(slices.Concat([]byte{socksVersion, authUserPass, 1, 0}, success), true)
	f.Add(slices.Concat([]byte{socksVersion, authUserPass}, []byte{1, 1}), true)
	f.Add(slices.Concat([]byte{socksVersion, authNone}, []byte{socksVersion, repSuccess, 0, atypDomain, 3, 'a', '.', 'b', 0, 53}), false)
	f.Add(slices.Concat([]byte{socksVersion, authNone}, []byte{socksVersion, repConnRefused, 0, atypIPv6}, make([]byte, 18)), false)
	f.Add([]byte{socksVersion, authNoAcceptable}, true)
	f.Add([]byte{socksVersion, authUserPass}, false)
	f.Add([]byte{4, 0}, false)
	f.Add(success[:3], false)
	f.Fuzz(func(t *testing.T, data []byte, auth bool) {
		fuzzFeeds(t, func(f feed) string { return socksClientOutcome(t, f, data, auth) })
	})
}
