// Package doq implements DNS over Dedicated QUIC Connections (RFC 9250): a
// server front-end on the dedicated UDP port 853 and a client that carries
// one query per client-initiated bidirectional stream, each message framed
// by the same 2-byte length prefix DNS-over-TCP uses (RFC 9250 §4.2).
//
// The transport rides netsim's datagram path: every QUIC flight — the
// Initial/Handshake exchange, a 0-RTT resumption flight, or a short-header
// packet carrying one or more STREAM frames — is one World.Exchange round
// trip. That mapping is what keeps the virtual-clock accounting honest and
// schedule-independent:
//
//   - a fresh connection pays exactly one round trip of setup (QUIC's 1-RTT
//     handshake, versus two for TCP+TLS DoT), charged to SetupLatency;
//   - a resumed connection pays zero setup — the handshake rides the first
//     query flight as 0-RTT early data at that flight's ordinary cost;
//   - N concurrent streams packed into one flight (Batch) amortize one
//     round trip across N queries, the DoQ analog of DoT pipelining;
//   - concurrent flights accumulate elapsed time commutatively, so totals
//     are identical under any goroutine schedule.
//
// There is no real packet protection: like the rest of the study's TLS
// simulation, the handshake carries genuine X.509 chains over fake crypto,
// so certificate verification (and its RFC 8310 strict/opportunistic
// split) behaves exactly as it does for DoT while the bytes stay
// deterministic.
package doq

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Port is the dedicated DoQ port (RFC 9250 §3.1: UDP 853).
const Port = 853

// DoQ application error codes (RFC 9250 §8.4), carried in the application
// variant of CONNECTION_CLOSE.
const (
	// NoError is the graceful-shutdown code.
	NoError uint64 = 0x0
	// InternalError signals a processing failure unrelated to the peer.
	InternalError uint64 = 0x1
	// ProtocolError signals a peer protocol violation (non-zero message
	// ID, malformed length framing, a non-client-bidi stream).
	ProtocolError uint64 = 0x2
)

// Errors surfaced to measurement code.
var (
	// ErrClosed means the connection is gone — closed locally, torn down
	// by a CONNECTION_CLOSE from the peer, or dead because a flight was
	// lost in transit (one lost datagram desynchronizes the simulated
	// connection state, so the session is abandoned rather than repaired,
	// and a retry dials a new one). It plays the role dnsclient.ErrClosed
	// plays for stream transports.
	ErrClosed = errors.New("doq: connection closed")
	// ErrAuthFailed is returned by strict-profile dials when the server
	// certificate cannot be verified (RFC 8310 Strict Privacy).
	ErrAuthFailed = errors.New("doq: server authentication failed (strict profile)")
	// ErrProtocol means the peer violated RFC 9250 framing.
	ErrProtocol = errors.New("doq: protocol error")
)

// connKeyLen is an address key (16 bytes, v4-mapped) plus a connection ID.
const connKeyLen = 16 + dnswire.QUICCIDLen

// cidFor derives the server-side connection ID from the client's: this
// subset has no Retry flight to negotiate CIDs, so both ends compute the
// server CID as a hash of the client's, keeping 0-RTT flights addressable
// without a round trip.
func cidFor(clientCID []byte) [dnswire.QUICCIDLen]byte {
	h := fnv.New64a()
	h.Write([]byte("doq-server-cid"))
	h.Write(clientCID)
	var out [dnswire.QUICCIDLen]byte
	binary.BigEndian.PutUint64(out[:], h.Sum64())
	return out
}

// ticketFor derives a server's stateless resumption ticket. Tickets are a
// pure function of the server address, so resumption survives server-side
// population churn and never needs server state — and a given client's
// cache hit/miss pattern is a deterministic function of its own dial
// history alone.
func ticketFor(server netip.Addr) [8]byte {
	h := fnv.New64a()
	h.Write([]byte("doq-resumption-ticket"))
	b, _ := server.MarshalBinary()
	h.Write(b)
	var out [8]byte
	binary.BigEndian.PutUint64(out[:], h.Sum64())
	return out
}

// --- Handshake payload codecs -------------------------------------------
//
// The CRYPTO frames carry a miniature of the TLS 1.3 flights: the client
// hello names the ALPN and offers a resumption ticket; the server hello
// carries the certificate chain (real DER, verified with real X.509 path
// building) and a fresh ticket.

const helloALPN = "doq"

type clientHello struct {
	alpn       string
	serverName string
	ticket     []byte
}

func appendClientHello(buf []byte, ch clientHello) []byte {
	buf = dnswire.AppendQUICVarint(buf, uint64(len(ch.alpn)))
	buf = append(buf, ch.alpn...)
	buf = dnswire.AppendQUICVarint(buf, uint64(len(ch.serverName)))
	buf = append(buf, ch.serverName...)
	buf = dnswire.AppendQUICVarint(buf, uint64(len(ch.ticket)))
	return append(buf, ch.ticket...)
}

func readHelloField(b []byte) ([]byte, int, error) {
	l, n, err := dnswire.ReadQUICVarint(b)
	if err != nil {
		return nil, 0, err
	}
	if l > uint64(len(b)-n) {
		return nil, 0, fmt.Errorf("%w: hello field overruns frame", ErrProtocol)
	}
	return b[n : n+int(l)], n + int(l), nil
}

func parseClientHello(b []byte) (clientHello, error) {
	var ch clientHello
	for _, dst := range []*string{&ch.alpn, &ch.serverName} {
		field, n, err := readHelloField(b)
		if err != nil {
			return clientHello{}, err
		}
		*dst = string(field)
		b = b[n:]
	}
	ticket, _, err := readHelloField(b)
	if err != nil {
		return clientHello{}, err
	}
	if len(ticket) > 0 {
		ch.ticket = ticket
	}
	return ch, nil
}

type serverHello struct {
	chain  [][]byte // DER certificates, leaf first
	ticket []byte
}

func appendServerHello(buf []byte, sh serverHello) []byte {
	buf = dnswire.AppendQUICVarint(buf, uint64(len(sh.chain)))
	for _, der := range sh.chain {
		buf = dnswire.AppendQUICVarint(buf, uint64(len(der)))
		buf = append(buf, der...)
	}
	buf = dnswire.AppendQUICVarint(buf, uint64(len(sh.ticket)))
	return append(buf, sh.ticket...)
}

func parseServerHello(b []byte) (serverHello, error) {
	count, n, err := dnswire.ReadQUICVarint(b)
	if err != nil {
		return serverHello{}, err
	}
	b = b[n:]
	if count > 16 {
		return serverHello{}, fmt.Errorf("%w: absurd certificate count %d", ErrProtocol, count)
	}
	var sh serverHello
	for i := uint64(0); i < count; i++ {
		der, adv, err := readHelloField(b)
		if err != nil {
			return serverHello{}, err
		}
		sh.chain = append(sh.chain, der)
		b = b[adv:]
	}
	ticket, _, err := readHelloField(b)
	if err != nil {
		return serverHello{}, err
	}
	sh.ticket = ticket
	return sh, nil
}

// --- Server --------------------------------------------------------------

// maxConns caps a server's connection table. A client's Close is silent
// (no goodbye flight), so almost no connection is ever closed by its peer:
// once the table holds maxConns registrations, each new one evicts the
// oldest, as a real server's idle timer would. A study or campaign holds a
// few DoQ sessions per worker open at once: the full study and
// all-protocol campaigns of up to 8,000 vantages, at up to 64 workers and
// under harsh faults, never used a session after more than 105 later
// registrations, so eviction stays far from any session in use.
const maxConns = 1024

// Server is the per-address DoQ front-end state: the connection table that
// maps short-header packets back to their handshakes.
type Server struct {
	leaf      *certs.Leaf
	handler   dnsserver.Handler
	extraProc time.Duration
	addr      netip.Addr

	mu    sync.Mutex
	conns map[[connKeyLen]byte]*serverConn
	// order holds the last maxConns registrations oldest first, as a ring
	// once full: next is where the oldest sits and the newest goes.
	order []*serverConn
	next  int
}

type serverConn struct {
	key       [connKeyLen]byte
	clientCID [dnswire.QUICCIDLen]byte
}

// Serve registers a DoQ server on addr:853 of the world, answering queries
// with h. The handshake presents leaf's chain; extraProc is charged per
// flight on top of the handler's own processing time (QUIC record costs),
// mirroring dot.Serve's per-query TLS cost.
func Serve(w *netsim.World, addr netip.Addr, leaf *certs.Leaf, h dnsserver.Handler, extraProc time.Duration) *Server {
	s := &Server{
		leaf: leaf, handler: h, extraProc: extraProc, addr: addr,
		conns: make(map[[connKeyLen]byte]*serverConn),
	}
	w.RegisterDatagram(addr, Port, s.handlePacket)
	return s
}

// Reset drops all connection state, as a server restart (or population
// churn re-provisioning the address) would. Established clients see a
// CONNECTION_CLOSE on their next flight and redial; stateless resumption
// tickets remain valid.
func (s *Server) Reset() {
	s.mu.Lock()
	s.conns = make(map[[connKeyLen]byte]*serverConn)
	s.order, s.next = nil, 0
	s.mu.Unlock()
}

func (s *Server) connKey(from netip.Addr, cid []byte) [connKeyLen]byte {
	var key [connKeyLen]byte
	b16 := netip.AddrFrom16(from.As16())
	raw, _ := b16.MarshalBinary()
	copy(key[:16], raw)
	copy(key[16:], cid)
	return key
}

// appendConnClose builds a one-frame close packet under the given header.
func appendConnClose(buf []byte, h dnswire.QUICHeader, typ dnswire.QUICFrameType, code uint64, reason string) ([]byte, error) {
	out, err := dnswire.AppendQUICHeader(buf, h)
	if err != nil {
		return nil, err
	}
	return dnswire.AppendQUICFrame(out, dnswire.QUICFrame{
		Type: typ, ErrorCode: code, Data: []byte(reason),
	})
}

// handlePacket is the datagram service: one request packet in, exactly one
// response packet out. Handshake flights answer with the certificate chain
// and a resumption ticket; query flights answer every STREAM frame the
// packet carried, in an order shuffled deterministically per flow.
func (s *Server) handlePacket(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
	h, n, err := dnswire.ParseQUICHeader(req)
	if err != nil {
		// Not QUIC at all: silence, like any UDP service dropping noise.
		return nil, 0, netsim.ErrBlackhole
	}
	payload := req[n:]
	switch h.Type {
	case dnswire.QUICInitial:
		return s.handleInitial(from, h, payload)
	case dnswire.QUICZeroRTT:
		return s.handleZeroRTT(from, h, payload)
	case dnswire.QUICOneRTT:
		return s.handleShort(from, h, payload)
	default:
		return nil, 0, netsim.ErrBlackhole
	}
}

// findCrypto returns the first CRYPTO frame's payload and the offset past
// the frames it scanned.
func findCrypto(payload []byte) ([]byte, bool) {
	n := 0
	for n < len(payload) {
		f, adv, err := dnswire.ParseQUICFrame(payload[n:])
		if err != nil {
			return nil, false
		}
		if f.Type == dnswire.QUICFrameCrypto {
			return f.Data, true
		}
		n += adv
	}
	return nil, false
}

// register adds a connection to the table, evicting the oldest
// registration once the table holds maxConns.
func (s *Server) register(from netip.Addr, clientCID []byte) [dnswire.QUICCIDLen]byte {
	srvCID := cidFor(clientCID)
	sc := &serverConn{key: s.connKey(from, srvCID[:])}
	copy(sc.clientCID[:], clientCID)
	s.mu.Lock()
	if len(s.order) < maxConns {
		s.order = append(s.order, sc)
	} else {
		// A close frame may already have removed the oldest, or a later
		// hello on the same connection replaced it.
		if old := s.order[s.next]; s.conns[old.key] == old {
			delete(s.conns, old.key)
		}
		s.order[s.next] = sc
		s.next = (s.next + 1) % maxConns
	}
	s.conns[sc.key] = sc
	s.mu.Unlock()
	return srvCID
}

func (s *Server) handleInitial(from netip.Addr, h dnswire.QUICHeader, payload []byte) ([]byte, time.Duration, error) {
	raw, ok := findCrypto(payload)
	if !ok {
		return nil, 0, netsim.ErrBlackhole
	}
	ch, err := parseClientHello(raw)
	if err != nil || ch.alpn != helloALPN {
		resp, cerr := appendConnClose(nil, dnswire.QUICHeader{Type: dnswire.QUICHandshake,
			Version: dnswire.QUICVersion, DCID: h.SCID}, dnswire.QUICFrameConnClose, 0, "bad hello")
		if cerr != nil {
			return nil, 0, netsim.ErrBlackhole
		}
		return resp, s.extraProc, nil
	}
	srvCID := s.register(from, h.SCID)
	ticket := ticketFor(s.addr)
	tlsCert := s.leaf.TLSCertificate()
	out, err := dnswire.AppendQUICHeader(nil, dnswire.QUICHeader{
		Type: dnswire.QUICHandshake, Version: dnswire.QUICVersion,
		DCID: h.SCID, SCID: srvCID[:],
	})
	if err != nil {
		return nil, 0, netsim.ErrBlackhole
	}
	out, err = dnswire.AppendQUICFrame(out, dnswire.QUICFrame{Type: dnswire.QUICFrameAck})
	if err != nil {
		return nil, 0, netsim.ErrBlackhole
	}
	out, err = dnswire.AppendQUICFrame(out, dnswire.QUICFrame{
		Type: dnswire.QUICFrameCrypto,
		Data: appendServerHello(nil, serverHello{chain: tlsCert.Certificate, ticket: ticket[:]}),
	})
	if err != nil {
		return nil, 0, netsim.ErrBlackhole
	}
	return out, s.extraProc, nil
}

func (s *Server) handleZeroRTT(from netip.Addr, h dnswire.QUICHeader, payload []byte) ([]byte, time.Duration, error) {
	raw, ok := findCrypto(payload)
	if !ok {
		return s.close(h.SCID, ProtocolError, "0-rtt without hello")
	}
	ch, err := parseClientHello(raw)
	want := ticketFor(s.addr)
	if err != nil || ch.alpn != helloALPN || string(ch.ticket) != string(want[:]) {
		return s.close(h.SCID, ProtocolError, "bad resumption ticket")
	}
	s.register(from, h.SCID)
	var clientCID [dnswire.QUICCIDLen]byte
	copy(clientCID[:], h.SCID)
	return s.answerStreams(from, clientCID, payload)
}

func (s *Server) handleShort(from netip.Addr, h dnswire.QUICHeader, payload []byte) ([]byte, time.Duration, error) {
	s.mu.Lock()
	sc, ok := s.conns[s.connKey(from, h.DCID)]
	s.mu.Unlock()
	if !ok {
		// Unknown connection (server restarted, population churned): the
		// close tells the client to redial rather than time out.
		var zero [dnswire.QUICCIDLen]byte
		resp, err := appendConnClose(nil, dnswire.QUICHeader{Type: dnswire.QUICOneRTT, DCID: zero[:]},
			dnswire.QUICFrameConnClose, 0, "unknown connection")
		if err != nil {
			return nil, 0, netsim.ErrBlackhole
		}
		return resp, 0, nil
	}
	return s.answerStreams(from, sc.clientCID, payload)
}

// close builds an application CONNECTION_CLOSE addressed to clientCID.
func (s *Server) close(clientCID []byte, code uint64, reason string) ([]byte, time.Duration, error) {
	var cid [dnswire.QUICCIDLen]byte
	copy(cid[:], clientCID)
	resp, err := appendConnClose(nil, dnswire.QUICHeader{Type: dnswire.QUICOneRTT, DCID: cid[:]},
		dnswire.QUICFrameConnCloseApp, code, reason)
	if err != nil {
		return nil, 0, netsim.ErrBlackhole
	}
	return resp, s.extraProc, nil
}

// answerStreams serves every STREAM frame in the packet and responds with
// one short-header packet carrying one response frame per request stream.
// The flight's processing charge is the maximum of the per-query handler
// times (queries in one packet are resolved concurrently server-side) plus
// the per-flight extraProc; response frames are emitted in an order
// shuffled deterministically from the flow tuple, exercising the client's
// by-stream-ID demux without breaking report byte-identity.
func (s *Server) answerStreams(from netip.Addr, clientCID [dnswire.QUICCIDLen]byte, payload []byte) ([]byte, time.Duration, error) {
	type answer struct {
		streamID uint64
		msg      *dnswire.Message
	}
	var answers []answer
	var maxProc time.Duration
	n := 0
	for n < len(payload) {
		f, adv, err := dnswire.ParseQUICFrame(payload[n:])
		if err != nil {
			return s.close(clientCID[:], ProtocolError, "malformed frame")
		}
		n += adv
		switch f.Type {
		case dnswire.QUICFrameStream:
			// RFC 9250 §4.2: queries ride client-initiated bidirectional
			// streams (IDs ≡ 0 mod 4), one message per stream, with the
			// 2-byte length prefix and message ID zero.
			if f.StreamID%4 != 0 {
				return s.close(clientCID[:], ProtocolError, "not a client bidi stream")
			}
			if len(f.Data) < 2 || int(binary.BigEndian.Uint16(f.Data)) != len(f.Data)-2 {
				return s.close(clientCID[:], ProtocolError, "bad message framing")
			}
			msg, err := dnswire.Unpack(f.Data[2:])
			if err != nil {
				return s.close(clientCID[:], ProtocolError, "unparseable query")
			}
			if msg.ID != 0 {
				return s.close(clientCID[:], ProtocolError, "non-zero message ID")
			}
			resp, proc := s.handler.ServeDNS(from, msg)
			if resp == nil {
				return nil, 0, netsim.ErrBlackhole
			}
			resp.ID = 0
			if proc > maxProc {
				maxProc = proc
			}
			answers = append(answers, answer{streamID: f.StreamID, msg: resp})
		case dnswire.QUICFrameConnClose, dnswire.QUICFrameConnCloseApp:
			srvCID := cidFor(clientCID[:])
			s.mu.Lock()
			delete(s.conns, s.connKey(from, srvCID[:]))
			s.mu.Unlock()
			return nil, 0, netsim.ErrBlackhole
		default:
			// PADDING, PING, ACK, CRYPTO (the 0-RTT hello): no response
			// frame of their own.
		}
	}
	if len(answers) == 0 {
		return s.close(clientCID[:], ProtocolError, "no stream data")
	}
	// Deterministic shuffle: a pure function of the flow and the packet's
	// lowest stream ID, never of arrival order.
	if len(answers) > 1 {
		seed := fnv.New64a()
		seed.Write(clientCID[:])
		var sid [8]byte
		binary.BigEndian.PutUint64(sid[:], answers[0].streamID)
		seed.Write(sid[:])
		rng := rand.New(netsim.NewSource(int64(seed.Sum64()))) //nolint:gosec // deterministic shuffle, not security
		rng.Shuffle(len(answers), func(i, j int) { answers[i], answers[j] = answers[j], answers[i] })
	}
	out, err := dnswire.AppendQUICHeader(nil, dnswire.QUICHeader{Type: dnswire.QUICOneRTT, DCID: clientCID[:]})
	if err != nil {
		return nil, 0, netsim.ErrBlackhole
	}
	scratch := bufpool.Get(512)
	defer bufpool.Put(scratch)
	for _, a := range answers {
		framed, err := a.msg.AppendPackTCP((*scratch)[:0])
		if err != nil {
			return s.close(clientCID[:], InternalError, "unpackable response")
		}
		*scratch = framed
		out, err = dnswire.AppendQUICFrame(out, dnswire.QUICFrame{
			Type: dnswire.QUICFrameStream, StreamID: a.streamID, Fin: true, Data: framed,
		})
		if err != nil {
			return nil, 0, netsim.ErrBlackhole
		}
	}
	return out, maxProc + s.extraProc, nil
}
