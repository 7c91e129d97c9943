package doh

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Method selects the RFC 8484 HTTP binding.
type Method int

// HTTP bindings.
const (
	GET Method = iota
	POST
)

// String implements fmt.Stringer.
func (m Method) String() string {
	if m == POST {
		return "POST"
	}
	return "GET"
}

// Errors surfaced by the client.
var (
	ErrAuthFailed = errors.New("doh: server authentication failed")
	ErrHTTPStatus = errors.New("doh: non-200 HTTP status")

	errMalformedResponse = errors.New("doh: malformed HTTP response")
	errBodyTooLarge      = fmt.Errorf("doh: response body over %d octets", maxBody)
	errHeadTooLarge      = fmt.Errorf("doh: response head over %d octets", maxHead)
)

// maxBody bounds a message body, reply or request, in both HTTP versions:
// 65,535 octets, the largest DNS message. A peer cannot make either end
// buffer more.
const maxBody = 65535

// Template is a parsed DoH URI template, e.g.
// "https://dns.example.com/dns-query{?dns}".
type Template struct {
	Host string // hostname to resolve and authenticate
	Path string // endpoint path
}

// ParseTemplate parses the subset of RFC 6570 templates DoH services use.
func ParseTemplate(s string) (Template, error) {
	s = strings.TrimSuffix(s, "{?dns}")
	u, err := url.Parse(s)
	if err != nil {
		return Template{}, err
	}
	if u.Scheme != "https" {
		return Template{}, fmt.Errorf("doh: template scheme %q, want https", u.Scheme)
	}
	path := u.Path
	if path == "" {
		path = "/"
	}
	return Template{Host: u.Hostname(), Path: path}, nil
}

// String renders the template back in {?dns} form.
func (t Template) String() string {
	return "https://" + t.Host + t.Path + "{?dns}"
}

// cryptoCost models per-query TLS+HTTP processing on the client, charged to
// the session's virtual clock.
const cryptoCost = 3 * time.Millisecond

// Client runs the DoH handshake over a stream its caller dialed to the
// template host's address (DialConnContext); resolver.Client.Dial is the one
// code path that opens study sessions. DoH is Strict-Privacy-only:
// certificate verification failures abort the lookup. A zero Client with
// Roots set is complete.
type Client struct {
	// Roots is the trust store that authenticates the template host.
	Roots *certs.TrustStore
	// Method selects GET (the cache-friendly default) or POST.
	Method Method
	// MaxInFlight, when positive, makes dialed sessions multiplexed: they
	// offer ALPN "h2" and carry up to MaxInFlight concurrent HTTP/2
	// streams. Zero — the default — dials serial HTTP/1.1 keep-alive
	// sessions.
	MaxInFlight int
}

// Conn is a reusable DoH session: a TLS handshake — plus the HTTP/2 preface
// and SETTINGS exchange when the client sets MaxInFlight — over a
// dnsclient.TCPConn, which carries the queries with the per-query
// cryptoCost. Without MaxInFlight the session is serial HTTP/1.1 (the h1
// framing); with it, the session is pipelined at dial over HTTP/2 (the h2
// framing), so QueryContext is safe for concurrent use up to MaxInFlight
// streams and Batch sends coalesced bursts.
type Conn struct {
	*dnsclient.TCPConn
	// scratch is the framing's pooled scratch, returned by the first Close,
	// after which the session frames no query.
	scratch *binding
	release sync.Once
}

// DialConnContext establishes a DoH session for the template over an
// already connected stream to its host (a direct dial or a SOCKS tunnel
// through a proxy network vantage point), whose deadline the caller has
// set. The session is built after the TLS handshake and any HTTP/2 setup,
// so its SetupLatency covers both. It closes raw on failure.
func (c *Client) DialConnContext(ctx context.Context, t Template, raw *netsim.Conn) (*Conn, error) {
	h2 := c.MaxInFlight > 0
	tc, err := c.handshake(ctx, t, raw, h2)
	if err != nil {
		return nil, err
	}
	br := bufio.NewReader(tc)
	if h2 {
		if err := startH2(tc, br); err != nil {
			tc.Close()
			raw.Close()
			return nil, err
		}
	}
	b := binding{method: c.Method, template: t, pbuf: bufpool.Get(512)} //doelint:transfer -- owned by the session; released in Conn.Close
	if !h2 {
		f := &h1Framing{binding: b, br: br}
		return &Conn{TCPConn: dnsclient.NewFramedConn(f, tc, raw, cryptoCost), scratch: &f.binding}, nil
	}
	b.qbuf = bufpool.Get(512) //doelint:transfer -- owned by the session; released in Conn.Close
	f := &h2Framing{binding: b, next: 1, br: br, limit: c.MaxInFlight, streams: make(map[uint32]*h2Stream)}
	conn := &Conn{TCPConn: dnsclient.NewFramedConn(f, tc, raw, cryptoCost), scratch: &f.binding}
	conn.Pipeline(c.MaxInFlight)
	return conn, nil
}

// handshake authenticates the template host over raw and offers ALPN "h2"
// when h2 is set. On failure it closes raw.
func (c *Client) handshake(ctx context.Context, t Template, raw *netsim.Conn, h2 bool) (*tls.Conn, error) {
	if err := ctx.Err(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("doh: dial: %w", err)
	}
	if t.Host == "" {
		raw.Close()
		return nil, fmt.Errorf("%w: template has no host to authenticate", ErrAuthFailed)
	}
	// The trust store stands in for crypto/tls's own chain check, which
	// would validate every handshake afresh. A failure takes the same
	// bad_certificate alert and the same error shape.
	cfg := &tls.Config{
		ServerName:         t.Host,
		Time:               func() time.Time { return certs.RefTime },
		InsecureSkipVerify: true, //nolint:gosec // verified in VerifyConnection
		VerifyConnection: func(cs tls.ConnectionState) error {
			rawCerts := make([][]byte, len(cs.PeerCertificates))
			for i, pc := range cs.PeerCertificates {
				rawCerts[i] = pc.Raw
			}
			if err := c.Roots.Verify(rawCerts, t.Host); err != nil {
				return &tls.CertificateVerificationError{UnverifiedCertificates: cs.PeerCertificates, Err: err}
			}
			return nil
		},
	}
	if h2 {
		cfg.NextProtos = []string{"h2"}
	}
	tc := tls.Client(raw, cfg)
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("%w: %w", ErrAuthFailed, err)
	}
	return tc, nil
}

// Close ends the session and returns the framing's pooled scratch: once,
// however often Close is called.
func (conn *Conn) Close() error {
	err := conn.TCPConn.Close()
	conn.release.Do(conn.scratch.release)
	return err
}

// binding is the client half of RFC 8484's wire-format binding, shared by
// both framings: the method and template every request carries, and the
// pooled scratch a query is packed into (pbuf) and, for an HTTP/2 GET, its
// :path rendered into (qbuf; nil on HTTP/1.1, whose request line takes the
// path directly). Only the session's write side touches it.
type binding struct {
	method     Method
	template   Template
	pbuf, qbuf *[]byte
}

// pack packs the query for (name, qtype) into pbuf. RFC 8484 recommends
// ID 0 for cache friendliness.
//
//doelint:hotpath
func (b *binding) pack(name string, qtype dnswire.Type) ([]byte, error) {
	packed, err := dnswire.NewQuery(0, name, qtype).AppendPack((*b.pbuf)[:0])
	if err != nil {
		return nil, err
	}
	*b.pbuf = packed
	return packed, nil
}

// release returns the pooled scratch.
func (b *binding) release() {
	bufpool.Put(b.pbuf)
	bufpool.Put(b.qbuf)
	b.pbuf, b.qbuf = nil, nil
}

// appendDNSPath appends a GET request's target, path?dns= followed by the
// unpadded base64url encoding of packed, to dst.
func appendDNSPath(dst []byte, path string, packed []byte) []byte {
	dst = append(dst, path...)
	dst = append(dst, "?dns="...)
	n := base64.RawURLEncoding.EncodedLen(len(packed))
	off := len(dst)
	dst = bufpool.Grow(dst, n)
	base64.RawURLEncoding.Encode(dst[off:], packed)
	return dst
}

// h1Framing is the dnsclient.Framing of a serial DoH session: each query is
// one HTTP/1.1 request on the keep-alive connection, and responses come
// back in request order, so every tag is 0 (the ID RFC 8484 has the DNS
// message carry). Requests and responses are hand-rolled: the request is
// rendered into the session's scratch and sent in one Write (the same
// single TLS record net/http's buffered request writer produced, so
// virtual-clock accounting is unchanged), and the response head is parsed
// in place from br. net/http's per-request Request/Response/textproto
// machinery is what dominated this path's allocation profile.
type h1Framing struct {
	binding
	br *bufio.Reader
}

func (f *h1Framing) NextTag() uint32 { return 0 }

// AppendQuery renders the RFC 8484 request for (name, qtype) onto wb. The
// request line and headers carry exactly what the server binding needs
// (Host, Accept, and the POST body headers); incidental net/http headers
// like User-Agent are omitted.
//
//doelint:hotpath
func (f *h1Framing) AppendQuery(wb []byte, _ uint32, name string, qtype dnswire.Type) ([]byte, error) {
	packed, err := f.pack(name, qtype)
	if err != nil {
		return wb, err
	}
	if f.method == POST {
		wb = append(wb, "POST "...)
		wb = append(wb, f.template.Path...)
		wb = append(wb, " HTTP/1.1\r\nHost: "...)
		wb = append(wb, f.template.Host...)
		wb = append(wb, "\r\nContent-Type: "...)
		wb = append(wb, ContentType...)
		wb = append(wb, "\r\nAccept: "...)
		wb = append(wb, ContentType...)
		wb = append(wb, "\r\nContent-Length: "...)
		wb = strconv.AppendInt(wb, int64(len(packed)), 10)
		wb = append(wb, "\r\n\r\n"...)
		return append(wb, packed...), nil
	}
	wb = append(wb, "GET "...)
	wb = appendDNSPath(wb, f.template.Path, packed)
	wb = append(wb, " HTTP/1.1\r\nHost: "...)
	wb = append(wb, f.template.Host...)
	wb = append(wb, "\r\nAccept: "...)
	wb = append(wb, ContentType...)
	return append(wb, "\r\n\r\n"...), nil
}

// ReadReply reads one response, its body into buf. A non-200 status or a
// body that is not a DNS message fails that query alone: the body has been
// read either way, so the keep-alive stream stays in sync. A malformed
// response, or a body over maxBody, is fatal.
//
//doelint:hotpath
func (f *h1Framing) ReadReply(buf []byte, _ func(uint32) bool) (dnsclient.Reply, []byte, error) {
	status, body, err := f.readResponse(buf[:0])
	if err != nil {
		return dnsclient.Reply{}, body, err
	}
	if status != http.StatusOK {
		return dnsclient.Reply{Err: fmt.Errorf("%w: %d", ErrHTTPStatus, status)}, body, nil
	}
	m, err := dnswire.Unpack(body)
	return dnsclient.Reply{Msg: m, Err: err}, body, nil
}

// readLine reads one CRLF-terminated line from the response, returning it
// without the terminator. The slice aliases the bufio buffer and is only
// valid until the next read.
func (f *h1Framing) readLine() ([]byte, error) {
	line, err := f.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// readResponse parses one HTTP/1.1 response, appending its body to body.
// It handles the body framings net/http servers emit: Content-Length,
// chunked, and close-delimited; the body is read whatever the status. A
// Content-Length or chunk that would take the body past maxBody is refused
// before the buffer grows, and a close-delimited body is read at most one
// octet past it.
func (f *h1Framing) readResponse(body []byte) (int, []byte, error) {
	line, err := f.readLine()
	if err != nil {
		return 0, body, err
	}
	status, err := parseStatusLine(line)
	if err != nil {
		return 0, body, err
	}
	contentLen := -1
	chunked := false
	for {
		line, err := f.readLine()
		if err != nil {
			return 0, body, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, body, errMalformedResponse
		}
		key, val := line[:colon], trimSpace(line[colon+1:])
		switch {
		case headerIs(key, "content-length"):
			n, err := strconv.Atoi(string(val))
			if err != nil || n < 0 {
				return 0, body, errMalformedResponse
			}
			if n > maxBody {
				return 0, body, errBodyTooLarge
			}
			contentLen = n
		case headerIs(key, "transfer-encoding"):
			chunked = headerIs(val, "chunked")
		}
	}
	switch {
	case chunked:
		for {
			line, err := f.readLine()
			if err != nil {
				return 0, body, err
			}
			n, err := strconv.ParseUint(string(line), 16, 31)
			if err != nil {
				return 0, body, errMalformedResponse
			}
			if n == 0 {
				// Zero chunk then the terminating empty line (trailers
				// are not emitted by the servers this client speaks to).
				if _, err := f.readLine(); err != nil {
					return 0, body, err
				}
				break
			}
			if len(body)+int(n) > maxBody {
				return 0, body, errBodyTooLarge
			}
			off := len(body)
			body = bufpool.Grow(body, int(n))
			if _, err := io.ReadFull(f.br, body[off:]); err != nil {
				return 0, body, err
			}
			// Chunk-terminating CRLF.
			if _, err := f.readLine(); err != nil {
				return 0, body, err
			}
		}
	case contentLen >= 0:
		body = bufpool.Grow(body, contentLen)
		if _, err := io.ReadFull(f.br, body); err != nil {
			return 0, body, err
		}
	default:
		// Close-delimited: the server ends the body by closing.
		for len(body) <= maxBody {
			off := len(body)
			body = bufpool.Grow(body, min(512, maxBody+1-off))
			n, err := f.br.Read(body[off:])
			body = body[:off+n]
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, body, err
			}
		}
		if len(body) > maxBody {
			return 0, body, errBodyTooLarge
		}
	}
	return status, body, nil
}

// parseStatusLine extracts the status code from "HTTP/1.1 200 OK".
func parseStatusLine(line []byte) (int, error) {
	sp := bytes.IndexByte(line, ' ')
	if sp < 0 || len(line) < sp+4 {
		return 0, errMalformedResponse
	}
	status := 0
	for _, c := range line[sp+1 : sp+4] {
		if c < '0' || c > '9' {
			return 0, errMalformedResponse
		}
		status = status*10 + int(c-'0')
	}
	return status, nil
}

// headerIs compares a header token to an all-lowercase name, ASCII
// case-insensitively, without allocating.
func headerIs(tok []byte, name string) bool {
	if len(tok) != len(name) {
		return false
	}
	for i := 0; i < len(tok); i++ {
		c := tok[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[i] {
			return false
		}
	}
	return true
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

// QueryJSON performs one Google-style JSON API lookup over raw, a stream its
// caller dialed to the template host: authenticate the host, send one
// HTTP/1.1 GET for JSONPath, close raw. The JSON API has no DNS wire format
// to frame, so it never shares a session with the wire-format queries. The
// reply is bounded as the server bounds a request: a head over maxHead or a
// body over maxBody is refused, and nothing past a bound is buffered.
func (c *Client) QueryJSON(ctx context.Context, t Template, raw *netsim.Conn, name string, qtype dnswire.Type) (*JSONResponse, error) {
	tc, err := c.handshake(ctx, t, raw, false)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	defer tc.Close()
	u := &url.URL{
		Scheme:   "https",
		Host:     t.Host,
		Path:     JSONPath,
		RawQuery: "name=" + url.QueryEscape(name) + "&type=" + strconv.Itoa(int(qtype)),
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	if err := req.Write(tc); err != nil {
		return nil, err
	}
	// The session carries one response, so one budget on the stream bounds
	// it: maxHead octets for the head, then maxBody+1 for the body with its
	// chunk framing and trailers, less what the head's reads buffered.
	lr := &io.LimitedReader{R: tc, N: maxHead}
	br := bufio.NewReader(lr)
	resp, err := http.ReadResponse(br, req)
	if err != nil {
		if lr.N == 0 {
			return nil, errHeadTooLarge
		}
		return nil, err
	}
	lr.N = maxBody + 1 - int64(br.Buffered())
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %d", ErrHTTPStatus, resp.StatusCode)
	}
	if resp.ContentLength > maxBody {
		return nil, errBodyTooLarge
	}
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxBody+1))
	if err != nil {
		return nil, err
	}
	if len(body) > maxBody {
		return nil, errBodyTooLarge
	}
	var jr JSONResponse
	if err := json.Unmarshal(body, &jr); err != nil {
		return nil, err
	}
	return &jr, nil
}
