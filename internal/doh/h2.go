package doh

// HTTP/2 multiplexing for DoH (RFC 8484 over RFC 7540): many concurrent
// streams per TLS session, selected by ALPN when Client.Mux is set. Both
// endpoints live in this repository, so the implementation is the small
// deterministic subset the study needs rather than a general h2 stack:
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
	"encoding/base64"
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

// startH2 upgrades a freshly handshaken session to HTTP/2: verify the ALPN
// result, send the client preface and an empty SETTINGS in one write, and
// read the server's SETTINGS. The extra round trip lands in SetupLatency.
func (conn *Conn) startH2() error {
	if conn.tls.ConnectionState().NegotiatedProtocol != "h2" {
		return fmt.Errorf("doh: server did not negotiate HTTP/2")
	}
	hello := append([]byte(nil), dnswire.H2ClientPreface...)
	hello, err := dnswire.AppendH2Frame(hello, dnswire.H2FrameSettings, 0, 0, nil)
	if err != nil {
		return err
	}
	if _, err := conn.tls.Write(hello); err != nil {
		return err
	}
	f, _, err := dnswire.ReadH2FrameAppend(conn.br, nil)
	if err != nil {
		return fmt.Errorf("doh: h2 setup: %w", err)
	}
	if f.Type != dnswire.H2FrameSettings || f.StreamID != 0 {
		return fmt.Errorf("doh: h2 setup: expected SETTINGS, got %v", f.Type)
	}
	limit := conn.client.MaxInFlight
	if limit <= 0 {
		limit = dnsclient.DefaultMaxInFlight
	}
	framing := &h2Framing{
		next:     1,
		method:   conn.client.Method,
		template: conn.template,
		pbuf:     conn.pbuf,
		qbuf:     conn.wbuf,
		br:       conn.br,
		limit:    limit,
		streams:  make(map[uint32]*h2Stream),
	}
	conn.mux = dnsclient.NewMux(framing, conn.tls, conn.raw, conn.client.CryptoCost, limit)
	return nil
}

// MaxInFlight reports the session's in-flight stream limit, or 0 for a
// serial (HTTP/1.1) session.
func (conn *Conn) MaxInFlight() int {
	if conn.mux == nil {
		return 0
	}
	return conn.mux.MaxInFlight()
}

// Multiplexed reports whether the session negotiated HTTP/2.
func (conn *Conn) Multiplexed() bool { return conn.mux != nil }

// h2Framing is the dnsclient.Framing of a multiplexed DoH session: each
// query is one stream — HEADERS carrying the RFC 8484 binding, plus a DATA
// frame for POST — tagged by its stream ID. Client stream IDs are odd and
// increase monotonically (RFC 7540 §5.1.1), so unlike DNS transaction IDs
// they cannot collide.
type h2Framing struct {
	// Write side, used under the Mux's write lock. pbuf and qbuf are the
	// Conn's pooled scratch, which its serial path never touches once the
	// session is multiplexed.
	next     uint32
	method   Method
	template Template
	pbuf     *[]byte // packed DNS query
	qbuf     *[]byte // GET :path (path?dns=base64url)

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
	// RFC 8484 recommends ID 0 for cache friendliness.
	q := dnswire.NewQuery(0, name, qtype)
	packed, err := q.AppendPack((*f.pbuf)[:0])
	if err != nil {
		return wb, err
	}
	*f.pbuf = packed
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
	pb := (*f.qbuf)[:0]
	pb = append(pb, f.template.Path...)
	pb = append(pb, "?dns="...)
	n := base64.RawURLEncoding.EncodedLen(len(packed))
	off := len(pb)
	pb = bufpool.Grow(pb, n)
	base64.RawURLEncoding.Encode(pb[off:], packed)
	*f.qbuf = pb
	wb = dnswire.AppendHpackLiteralBytes(wb, ":path", pb)
	wb = dnswire.AppendHpackLiteral(wb, "accept", ContentType)
	return dnswire.FinishH2Frame(wb, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndStream|dnswire.H2FlagEndHeaders, sid)
}

// ReadReply reassembles streams frame by frame until one completes. A
// non-200 status, a body that is not a DNS message, or RST_STREAM fails
// that stream alone; GOAWAY and read errors end the session.
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

// h2Post accumulates a POST request whose body arrives in DATA frames after
// its HEADERS.
type h2Post struct {
	method string
	path   string
	body   []byte
}

// serveH2 is the server's per-connection HTTP/2 loop: preface and SETTINGS
// exchange (no ACKs), then a frame loop that answers each completed stream.
// Responses to concurrently arriving streams coalesce in the write buffer
// until no further frame is already buffered — the h2 analogue of the RFC
// 7766 §6.2.1.1 response coalescing in dnsserver — so a client burst that
// arrived in one segment is answered in one segment.
//
//doelint:hotpath
func (s *Server) serveH2(conn *netsim.Conn, tc io.ReadWriter, paths map[string]bool) {
	remote := conn.RemoteAddr().(netsim.Addr).IP
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
	var posts map[uint32]*h2Post // lazily allocated; GET-only clients never need it
	for {
		f, payload, err := dnswire.ReadH2FrameAppend(br, (*rbuf)[:0])
		if err != nil {
			return
		}
		*rbuf = payload[:0]
		switch f.Type {
		case dnswire.H2FrameHeaders:
			method, path, ok := parseH2Request(payload)
			if !ok {
				return
			}
			if f.EndStream() {
				out, ok = s.appendH2Response(out, conn, remote, f.StreamID, method, path, nil, paths)
				if !ok {
					return
				}
			} else {
				if posts == nil {
					posts = make(map[uint32]*h2Post)
				}
				posts[f.StreamID] = &h2Post{method: method, path: path}
			}
		case dnswire.H2FrameData:
			st := posts[f.StreamID]
			if st == nil {
				return
			}
			st.body = append(st.body, payload...)
			if f.EndStream() {
				delete(posts, f.StreamID)
				var ok bool
				out, ok = s.appendH2Response(out, conn, remote, f.StreamID, st.method, st.path, st.body, paths)
				if !ok {
					return
				}
			}
		case dnswire.H2FrameRSTStream:
			delete(posts, f.StreamID)
		case dnswire.H2FrameGoAway:
			return
		default:
			// SETTINGS, PING, WINDOW_UPDATE: ignored per the no-ACK,
			// no-flow-control subset.
		}
		if len(out) > 0 && br.Buffered() == 0 {
			if _, err := tc.Write(out); err != nil {
				return
			}
			*wbuf = out
			out = out[:0]
		}
	}
}

// parseH2Request extracts :method and :path from a request header block.
func parseH2Request(block []byte) (method, path string, ok bool) {
	for len(block) > 0 {
		name, value, rest, err := dnswire.ReadHpackLiteral(block)
		if err != nil {
			return "", "", false
		}
		switch string(name) {
		case ":method":
			method = string(value)
		case ":path":
			path = string(value)
		}
		block = rest
	}
	return method, path, method != "" && path != ""
}

// appendH2Response answers one completed stream, appending its HEADERS and
// DATA frames to out and charging the handler's processing time to the
// connection. ok is false when the response cannot be framed (fatal).
func (s *Server) appendH2Response(out []byte, conn *netsim.Conn, remote netip.Addr, sid uint32, method, path string, body []byte, paths map[string]bool) ([]byte, bool) {
	status := http.StatusOK
	ctype := ContentType
	var respBody []byte

	p, query := path, ""
	if i := strings.IndexByte(path, '?'); i >= 0 {
		p, query = path[:i], path[i+1:]
	}
	var wire []byte
	switch {
	case !paths[p]:
		status, ctype, respBody = http.StatusNotFound, "text/plain", []byte("not found")
	case method == http.MethodGet:
		dns := queryParam(query, "dns")
		if dns == "" {
			status, ctype, respBody = http.StatusBadRequest, "text/plain", []byte("missing dns parameter")
		} else if decoded, err := base64.RawURLEncoding.DecodeString(dns); err != nil {
			status, ctype, respBody = http.StatusBadRequest, "text/plain", []byte("bad dns parameter")
		} else {
			wire = decoded
		}
	case method == http.MethodPost:
		wire = body
	default:
		status, ctype, respBody = http.StatusMethodNotAllowed, "text/plain", []byte("GET or POST")
	}
	var resp *dnswire.Message
	if wire != nil {
		m, err := dnswire.Unpack(wire)
		if err != nil {
			status, ctype, respBody = http.StatusBadRequest, "text/plain", []byte("malformed DNS message")
		} else {
			r, proc := s.Handler.ServeDNS(remote, m)
			conn.AddLatency(proc + s.ExtraProc)
			resp = r
		}
	}

	for {
		hstart := len(out)
		out = dnswire.ReserveH2FrameHeader(out)
		out = dnswire.AppendHpackLiteral(out, ":status", h2StatusText(status))
		out = dnswire.AppendHpackLiteral(out, "content-type", ctype)
		var err error
		out, err = dnswire.FinishH2Frame(out, hstart, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid)
		if err != nil {
			return nil, false
		}
		dstart := len(out)
		out = dnswire.ReserveH2FrameHeader(out)
		if resp != nil {
			// Pack straight into the DATA frame — no intermediate buffer;
			// compression offsets are message-relative so any prefix works.
			if out, err = resp.AppendPack(out); err != nil {
				out = out[:hstart]
				resp = nil
				status, ctype, respBody = http.StatusInternalServerError, "text/plain", []byte("pack error")
				continue
			}
		} else {
			out = append(out, respBody...)
		}
		out, err = dnswire.FinishH2Frame(out, dstart, dnswire.H2FrameData, dnswire.H2FlagEndStream, sid)
		if err != nil {
			return nil, false
		}
		return out, true
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

// queryParam extracts one key's value from a raw query string without
// url.ParseQuery's allocations; values are returned undecoded (base64url
// never needs percent-escaping).
func queryParam(query, key string) string {
	for len(query) > 0 {
		kv := query
		if i := strings.IndexByte(query, '&'); i >= 0 {
			kv, query = query[:i], query[i+1:]
		} else {
			query = ""
		}
		if len(kv) > len(key) && kv[len(key)] == '=' && kv[:len(key)] == key {
			return kv[len(key)+1:]
		}
	}
	return ""
}
