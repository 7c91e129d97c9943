package doh

// HTTP/2 multiplexing for DoH (RFC 8484 over RFC 7540): many concurrent
// streams per TLS session, selected by ALPN when Client.MaxInFlight is set.
// Both endpoints live in this repository, so the implementation is the
// small deterministic subset the study needs rather than a general h2
// stack:
//
//   - connection setup is client preface + one SETTINGS exchange with no
//     SETTINGS ACKs in either direction — an ACK would be the only h2 write
//     not paired with a read, and any unpaired write races the peer's
//     virtual-clock advances;
//   - HPACK uses literal-without-indexing fields only (no dynamic table, no
//     Huffman coding), so header blocks parse statelessly;
//   - flow control is not enforced: DNS messages are far below the initial
//     window and both ends ignore WINDOW_UPDATE.
//
// The client is dnsclient.Mux, the engine TCP and DoT pipelining run on,
// over h2Framing: the engine owns the in-flight limit, the tag table, the
// rendezvous slots and the demux reader; this file owns h2 setup, frame
// building and stream reassembly.

import (
	"bufio"
	"crypto/tls"
	"fmt"
	"io"
	"net/http"
	"net/netip"
	"strings"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// startH2 upgrades a freshly handshaken connection to HTTP/2: verify the
// ALPN result, send the client preface and an empty SETTINGS in one write,
// and read the server's SETTINGS from br. The extra round trip precedes the
// session, so it lands in SetupLatency.
func startH2(tc *tls.Conn, br *bufio.Reader) error {
	if tc.ConnectionState().NegotiatedProtocol != "h2" {
		return fmt.Errorf("doh: server did not negotiate HTTP/2")
	}
	hello := append([]byte(nil), dnswire.H2ClientPreface...)
	hello, err := dnswire.AppendH2Frame(hello, dnswire.H2FrameSettings, 0, 0, nil)
	if err != nil {
		return err
	}
	if _, err := tc.Write(hello); err != nil {
		return err
	}
	f, _, err := dnswire.ReadH2FrameAppend(br, nil)
	if err != nil {
		return fmt.Errorf("doh: h2 setup: %w", err)
	}
	if f.Type != dnswire.H2FrameSettings || f.StreamID != 0 {
		return fmt.Errorf("doh: h2 setup: expected SETTINGS, got %v", f.Type)
	}
	return nil
}

// h2Framing is the dnsclient.Framing of a multiplexed DoH session: each
// query is one stream — HEADERS carrying the RFC 8484 binding, plus a DATA
// frame for POST — tagged by its stream ID. Client stream IDs are odd and
// increase monotonically (RFC 7540 §5.1.1), so unlike DNS transaction IDs
// they cannot collide.
type h2Framing struct {
	// Write side, used under the Mux's write lock.
	binding
	next uint32

	// Read side, owned by the Mux's reader: the reassembly state of every
	// stream whose reply has begun. spare keeps the last finished stream's
	// state for the next one; servers send each reply's frames back to back,
	// so steady state allocates none.
	br      *bufio.Reader
	limit   int
	streams map[uint32]*h2Stream
	spare   *h2Stream
}

// h2Stream accumulates one reply's status and body across its HEADERS and
// DATA frames until END_STREAM.
type h2Stream struct {
	status int
	body   []byte
}

func (f *h2Framing) NextTag() uint32 {
	sid := f.next
	f.next += 2
	return sid
}

// AppendQuery builds one query's frames onto wb.
//
//doelint:hotpath
func (f *h2Framing) AppendQuery(wb []byte, sid uint32, name string, qtype dnswire.Type) ([]byte, error) {
	packed, err := f.pack(name, qtype)
	if err != nil {
		return wb, err
	}
	hstart := len(wb)
	wb = dnswire.ReserveH2FrameHeader(wb)
	if f.method == POST {
		wb = dnswire.AppendHpackLiteral(wb, ":method", "POST")
		wb = dnswire.AppendHpackLiteral(wb, ":scheme", "https")
		wb = dnswire.AppendHpackLiteral(wb, ":authority", f.template.Host)
		wb = dnswire.AppendHpackLiteral(wb, ":path", f.template.Path)
		wb = dnswire.AppendHpackLiteral(wb, "content-type", ContentType)
		wb = dnswire.AppendHpackLiteral(wb, "accept", ContentType)
		wb, err = dnswire.FinishH2Frame(wb, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid)
		if err != nil {
			return wb, err
		}
		return dnswire.AppendH2Frame(wb, dnswire.H2FrameData, dnswire.H2FlagEndStream, sid, packed)
	}
	wb = dnswire.AppendHpackLiteral(wb, ":method", "GET")
	wb = dnswire.AppendHpackLiteral(wb, ":scheme", "https")
	wb = dnswire.AppendHpackLiteral(wb, ":authority", f.template.Host)
	pb := appendDNSPath((*f.qbuf)[:0], f.template.Path, packed)
	*f.qbuf = pb
	wb = dnswire.AppendHpackLiteralBytes(wb, ":path", pb)
	wb = dnswire.AppendHpackLiteral(wb, "accept", ContentType)
	return dnswire.FinishH2Frame(wb, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndStream|dnswire.H2FlagEndHeaders, sid)
}

// ReadReply reassembles streams frame by frame until one completes. A
// non-200 status, a body that is not a DNS message or would pass maxBody,
// or RST_STREAM fails that stream alone and drops its state; GOAWAY and
// read errors end the session.
//
//doelint:hotpath
func (f *h2Framing) ReadReply(buf []byte, awaited func(uint32) bool) (dnsclient.Reply, []byte, error) {
	for {
		fr, payload, err := dnswire.ReadH2FrameAppend(f.br, buf[:0])
		if err != nil {
			return dnsclient.Reply{}, buf, err
		}
		buf = payload
		sid := fr.StreamID
		switch fr.Type {
		case dnswire.H2FrameHeaders, dnswire.H2FrameData:
			st := f.stream(sid, awaited)
			if st == nil {
				continue
			}
			if fr.Type == dnswire.H2FrameHeaders {
				st.status = parseH2Status(payload)
				st.body = st.body[:0]
			} else {
				if len(st.body)+len(payload) > maxBody {
					f.drop(sid, st)
					return dnsclient.Reply{Tag: sid, Err: errBodyTooLarge}, buf, nil
				}
				st.body = append(st.body, payload...)
			}
			if fr.EndStream() {
				return f.finish(sid, st), buf, nil
			}
		case dnswire.H2FrameRSTStream:
			if st := f.streams[sid]; st != nil {
				f.drop(sid, st)
			}
			return dnsclient.Reply{Tag: sid, Err: fmt.Errorf("doh: stream %d reset by server", sid)}, buf, nil
		case dnswire.H2FrameGoAway:
			return dnsclient.Reply{}, buf, fmt.Errorf("doh: server sent GOAWAY")
		default:
			// SETTINGS, PING and WINDOW_UPDATE carry no reply data and —
			// per the package's no-ACK, no-flow-control subset — need no
			// answer.
		}
	}
}

// stream returns sid's reassembly state, creating it only for a stream the
// Mux still awaits: frames on a stream the client never opened, or has
// abandoned, create no state. State that streams abandoned mid-reply left
// behind is swept before the table outgrows the in-flight limit, so the
// table stays bounded by the Mux's in-flight table.
func (f *h2Framing) stream(sid uint32, awaited func(uint32) bool) *h2Stream {
	if st := f.streams[sid]; st != nil {
		return st
	}
	if !awaited(sid) {
		return nil
	}
	if len(f.streams) >= f.limit {
		for id, st := range f.streams {
			if !awaited(id) {
				f.drop(id, st)
			}
		}
	}
	st := f.spare
	if st != nil {
		f.spare = nil
		st.status, st.body = 0, st.body[:0]
	} else {
		st = new(h2Stream)
	}
	f.streams[sid] = st
	return st
}

// finish completes stream sid.
func (f *h2Framing) finish(sid uint32, st *h2Stream) dnsclient.Reply {
	r := dnsclient.Reply{Tag: sid}
	if st.status != http.StatusOK {
		r.Err = fmt.Errorf("%w: %d", ErrHTTPStatus, st.status)
	} else {
		r.Msg, r.Err = dnswire.Unpack(st.body)
	}
	f.drop(sid, st)
	return r
}

// drop forgets stream sid and keeps its state as the spare.
func (f *h2Framing) drop(sid uint32, st *h2Stream) {
	delete(f.streams, sid)
	f.spare = st
}

// parseH2Status extracts :status from a response header block; 0 on parse
// failure (which finish then rejects as a non-200).
func parseH2Status(block []byte) int {
	for len(block) > 0 {
		name, value, rest, err := dnswire.ReadHpackLiteral(block)
		if err != nil {
			return 0
		}
		if string(name) == ":status" {
			status := 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return 0
				}
				status = status*10 + int(c-'0')
			}
			return status
		}
		block = rest
	}
	return 0
}

// ---- server side ----

// h2Request is one request stream: the pseudo-headers and media type its
// HEADERS carried, and a POST's body as its DATA frames arrive.
type h2Request struct {
	method, path, ctype string
	body                []byte
}

// serveH2 is the server's per-connection HTTP/2 loop: preface and SETTINGS
// exchange (no ACKs), then a frame loop that answers each completed stream.
// Responses to concurrently arriving streams coalesce in the write buffer
// until no further frame is already buffered — the h2 analogue of the RFC
// 7766 §6.2.1.1 response coalescing in dnsserver — so a client burst that
// arrived in one segment is answered in one segment. A stream past maxBody,
// a POST stream past maxStreams, or any frame the loop cannot follow ends
// the session; the answers already framed still go out first.
//
//doelint:hotpath
func (s *Server) serveH2(conn *netsim.Conn, remote netip.Addr, tc io.ReadWriter, paths map[string]bool) {
	br := bufio.NewReaderSize(tc, 4096) //doelint:allow hotalloc -- one reader per connection, amortized over its streams
	preface, err := br.Peek(len(dnswire.H2ClientPreface))
	if err != nil || string(preface) != dnswire.H2ClientPreface {
		return
	}
	_, _ = br.Discard(len(preface)) // Peek buffered these bytes, so Discard cannot fail
	f, _, err := dnswire.ReadH2FrameAppend(br, nil)
	if err != nil || f.Type != dnswire.H2FrameSettings || f.StreamID != 0 {
		return
	}
	hello, err := dnswire.AppendH2Frame(nil, dnswire.H2FrameSettings, 0, 0, nil)
	if err != nil {
		return
	}
	if _, err := tc.Write(hello); err != nil {
		return
	}

	rbuf := bufpool.Get(512)
	wbuf := bufpool.Get(512)
	defer bufpool.Put(rbuf)
	defer bufpool.Put(wbuf)
	out := (*wbuf)[:0]
	var posts map[uint32]*h2Request // lazily allocated; GET-only clients never need it
	for ok := true; ok; {
		f, payload, err := dnswire.ReadH2FrameAppend(br, (*rbuf)[:0])
		if err != nil {
			break
		}
		*rbuf = payload[:0]
		switch f.Type {
		case dnswire.H2FrameHeaders:
			var req h2Request
			req, ok = parseH2Request(payload)
			switch {
			case !ok:
			case f.EndStream():
				out, ok = s.appendH2Response(out, conn, remote, f.StreamID, req, paths)
			case posts[f.StreamID] == nil && len(posts) >= maxStreams:
				ok = false
			default:
				if posts == nil {
					posts = make(map[uint32]*h2Request)
				}
				posts[f.StreamID] = &h2Request{method: req.method, path: req.path, ctype: req.ctype}
			}
		case dnswire.H2FrameData:
			req := posts[f.StreamID]
			if ok = req != nil && len(req.body)+len(payload) <= maxBody; !ok {
				break
			}
			req.body = append(req.body, payload...)
			if f.EndStream() {
				delete(posts, f.StreamID)
				out, ok = s.appendH2Response(out, conn, remote, f.StreamID, *req, paths)
			}
		case dnswire.H2FrameRSTStream:
			delete(posts, f.StreamID)
		case dnswire.H2FrameGoAway:
			ok = false
		default:
			// SETTINGS, PING, WINDOW_UPDATE: ignored per the no-ACK,
			// no-flow-control subset.
		}
		if len(out) > 0 && (!ok || br.Buffered() == 0) {
			if _, err := tc.Write(out); err != nil {
				return
			}
			*wbuf = out
			out = out[:0]
		}
	}
	if len(out) > 0 {
		tc.Write(out) //nolint:errcheck // the session is over either way
	}
}

// parseH2Request extracts :method, :path and content-type from a request
// header block.
func parseH2Request(block []byte) (req h2Request, ok bool) {
	for len(block) > 0 {
		name, value, rest, err := dnswire.ReadHpackLiteral(block)
		if err != nil {
			return h2Request{}, false
		}
		switch string(name) {
		case ":method":
			req.method = string(value)
		case ":path":
			req.path = string(value)
		case "content-type":
			req.ctype = string(value)
		}
		block = rest
	}
	return req, req.method != "" && req.path != ""
}

// appendH2Response answers one completed stream through the shared RFC 8484
// binding, appending its HEADERS and DATA frames to out. ok is false when
// the response cannot be framed (fatal); out then holds what it held.
func (s *Server) appendH2Response(out []byte, conn *netsim.Conn, remote netip.Addr, sid uint32, req h2Request, paths map[string]bool) ([]byte, bool) {
	path, query, _ := strings.Cut(req.path, "?")
	status, resp, text := http.StatusNotFound, (*dnswire.Message)(nil), "not found"
	if paths[path] {
		status, resp, text = s.answer(conn, remote, req.method, queryParam(query, "dns"), req.ctype, req.body)
	}
	for {
		ctype := ContentType
		if resp == nil {
			ctype = "text/plain"
		}
		b := dnswire.ReserveH2FrameHeader(out)
		b = dnswire.AppendHpackLiteral(b, ":status", h2StatusText(status))
		b = dnswire.AppendHpackLiteral(b, "content-type", ctype)
		b, err := dnswire.FinishH2Frame(b, len(out), dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid)
		if err != nil {
			return out, false
		}
		dstart := len(b)
		b = dnswire.ReserveH2FrameHeader(b)
		if resp != nil {
			// Pack straight into the DATA frame — no intermediate buffer;
			// compression offsets are message-relative so any prefix works.
			if b, err = resp.AppendPack(b); err != nil {
				status, resp, text = http.StatusInternalServerError, nil, "pack error"
				continue
			}
		} else {
			b = append(b, text...)
		}
		if b, err = dnswire.FinishH2Frame(b, dstart, dnswire.H2FrameData, dnswire.H2FlagEndStream, sid); err != nil {
			return out, false
		}
		return b, true
	}
}

// h2StatusText renders the status codes this server emits.
func h2StatusText(status int) string {
	switch status {
	case http.StatusOK:
		return "200"
	case http.StatusBadRequest:
		return "400"
	case http.StatusNotFound:
		return "404"
	case http.StatusMethodNotAllowed:
		return "405"
	case http.StatusUnsupportedMediaType:
		return "415"
	default:
		return "500"
	}
}
