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
	"net/netip"
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
)

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

// Client issues DoH queries. DoH is Strict-Privacy-only: certificate
// verification failures abort the lookup.
type Client struct {
	World *netsim.World
	From  netip.Addr
	// Roots is the trust store that authenticates the template host.
	Roots *certs.TrustStore
	// Method selects GET (the cache-friendly default) or POST.
	Method Method
	// Timeout is the real-time guard per operation. Zero — the default —
	// disables it; see dnsclient.Client.Timeout for why study transports
	// must not carry wall-clock deadlines.
	Timeout time.Duration
	// CryptoCost models per-query TLS+HTTP processing on the client.
	CryptoCost time.Duration
	// Bootstrap resolves template hostnames when no override is given:
	// the address of a clear-text resolver used for bootstrapping (§2.2:
	// "the hostname in the template should be resolved to bootstrap DoH
	// lookups, e.g. via clear-text DNS").
	Bootstrap netip.Addr
	// Override maps hostnames directly to addresses (measurement configs
	// pin resolver IPs).
	Override map[string]netip.Addr
	// Mux selects the multiplexed HTTP/2 path: sessions dialed with it set
	// offer ALPN "h2" and their QueryContext is safe for concurrent use up
	// to MaxInFlight streams. Unset, sessions speak serial HTTP/1.1
	// keep-alive exactly as before.
	Mux bool
	// MaxInFlight bounds concurrent streams per multiplexed session;
	// 0 selects dnsclient.DefaultMaxInFlight. Ignored unless Mux is set.
	MaxInFlight int
}

// NewClient returns a Client with study defaults.
func NewClient(w *netsim.World, from netip.Addr, roots *certs.TrustStore) *Client {
	return &Client{
		World:      w,
		From:       from,
		Roots:      roots,
		CryptoCost: 3 * time.Millisecond,
		Override:   make(map[string]netip.Addr),
	}
}

// ResolveContext maps a template hostname to an address using the override
// table or the bootstrap resolver, honouring ctx on the bootstrap lookup.
func (c *Client) ResolveContext(ctx context.Context, host string) (netip.Addr, error) {
	if addr, ok := c.Override[dnswire.CanonicalName(host)]; ok {
		return addr, nil
	}
	if addr, ok := c.Override[host]; ok {
		return addr, nil
	}
	if !c.Bootstrap.IsValid() {
		return netip.Addr{}, fmt.Errorf("doh: no override for %q and no bootstrap resolver", host)
	}
	stub := dnsclient.New(c.World, c.From)
	res, err := stub.QueryUDPContext(ctx, c.Bootstrap, host, dnswire.TypeA)
	if err != nil {
		return netip.Addr{}, fmt.Errorf("doh: bootstrap resolution of %q: %w", host, err)
	}
	addr, ok := res.FirstA()
	if !ok {
		return netip.Addr{}, fmt.Errorf("doh: bootstrap resolution of %q returned no address", host)
	}
	return addr, nil
}

// Conn is a reusable DoH session: one TLS connection speaking either serial
// HTTP/1.1 keep-alive (the default) or, when dialed by a Client with Mux
// set, multiplexed HTTP/2 — many concurrent streams whose QueryContext is
// safe for concurrent use.
type Conn struct {
	mu       sync.Mutex
	mux      *dnsclient.Mux // non-nil when the session negotiated HTTP/2
	raw      *netsim.Conn
	tls      *tls.Conn
	br       *bufio.Reader
	client   *Client
	template Template
	setup    time.Duration
	closed   bool
	// pbuf/wbuf/rbuf are the session's pooled scratch buffers — packed DNS
	// message, rendered HTTP request, and response body — guarded by mu
	// like the connection itself and returned on Close.
	pbuf, wbuf, rbuf *[]byte
}

// Dial establishes a DoH session for the template, connecting to addr
// (resolved by the caller or via ResolveContext).
func (c *Client) Dial(t Template, addr netip.Addr) (*Conn, error) {
	return c.DialContext(context.Background(), t, addr)
}

// DialContext establishes a DoH session for the template, bounded by the
// context deadline if one is set.
func (c *Client) DialContext(ctx context.Context, t Template, addr netip.Addr) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("doh: dial: %w", err)
	}
	raw, err := c.World.Dial(c.From, addr, Port)
	if err != nil {
		return nil, err
	}
	return c.DialConnContext(ctx, t, raw)
}

// DialConnContext establishes a DoH session over an already connected
// stream (e.g. a SOCKS tunnel through a proxy network vantage point),
// bounded by the context deadline if one is set.
func (c *Client) DialConnContext(ctx context.Context, t Template, raw *netsim.Conn) (*Conn, error) {
	if err := ctx.Err(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("doh: dial: %w", err)
	}
	if t.Host == "" {
		raw.Close()
		return nil, fmt.Errorf("%w: template has no host to authenticate", ErrAuthFailed)
	}
	raw.SetDeadline(dnsclient.Deadline(ctx, c.Timeout))
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
	if c.Mux {
		cfg.NextProtos = []string{"h2"}
	}
	tc := tls.Client(raw, cfg)
	if err := tc.Handshake(); err != nil {
		raw.Close()
		return nil, fmt.Errorf("%w: %w", ErrAuthFailed, err)
	}
	conn := &Conn{
		raw:      raw,
		tls:      tc,
		br:       bufio.NewReader(tc),
		client:   c,
		template: t,
		setup:    raw.Elapsed(),
		pbuf:     bufpool.Get(512),  //doelint:transfer -- owned by Conn; released in Close
		wbuf:     bufpool.Get(2048), //doelint:transfer -- owned by Conn; released in Close
		rbuf:     bufpool.Get(512),  //doelint:transfer -- owned by Conn; released in Close
	}
	if c.Mux {
		if err := conn.startH2(); err != nil {
			conn.Close()
			return nil, err
		}
		// The preface/SETTINGS round trip is connection establishment.
		conn.setup = raw.Elapsed()
	}
	return conn, nil
}

// SetupLatency is the virtual time spent on TCP + TLS establishment.
func (conn *Conn) SetupLatency() time.Duration { return conn.setup }

// Elapsed is the total virtual time consumed so far.
func (conn *Conn) Elapsed() time.Duration { return conn.raw.Elapsed() }

// Query performs one wire-format DoH transaction on the session.
func (conn *Conn) Query(name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	return conn.QueryContext(context.Background(), name, qtype)
}

// QueryContext performs one wire-format DoH transaction on the session,
// checking ctx before the transaction starts.
//
// The HTTP/1.1 exchange is hand-rolled: the request is rendered into a
// reused scratch buffer and sent in one Write (the same single TLS record
// net/http's buffered request writer produced, so virtual-clock accounting
// is unchanged), and the response head is parsed in place from the session's
// bufio.Reader. net/http's per-request Request/Response/textproto machinery
// is what dominated this path's allocation profile.
//
//doelint:hotpath
func (conn *Conn) QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	conn.mu.Lock()
	if m := conn.mux; m != nil {
		conn.mu.Unlock()
		return m.Exchange(ctx, name, qtype)
	}
	defer conn.mu.Unlock()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("doh: query: %w", err)
	}
	if conn.closed {
		return nil, dnsclient.ErrClosed
	}
	// RFC 8484 recommends ID 0 for cache friendliness.
	q := dnswire.NewQuery(0, name, qtype)
	packed, err := q.AppendPack((*conn.pbuf)[:0])
	if err != nil {
		return nil, err
	}
	*conn.pbuf = packed
	wb := conn.appendRequest((*conn.wbuf)[:0], packed)
	*conn.wbuf = wb
	start := conn.raw.Elapsed()
	conn.raw.AddLatency(conn.client.CryptoCost)
	if _, err := conn.tls.Write(wb); err != nil {
		return nil, err
	}
	status, body, err := conn.readResponse()
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%w: %d", ErrHTTPStatus, status)
	}
	m, err := dnswire.Unpack(body)
	if err != nil {
		return nil, err
	}
	return &dnsclient.Result{Msg: m, Latency: conn.raw.Elapsed() - start}, nil
}

// appendRequest renders the RFC 8484 request for packed into buf and
// returns the extended slice. The emitted request line and headers carry
// exactly what the server binding needs (Host, Accept, and the POST body
// headers); incidental net/http headers like User-Agent are omitted.
func (conn *Conn) appendRequest(buf, packed []byte) []byte {
	if conn.client.Method == POST {
		buf = append(buf, "POST "...)
		buf = append(buf, conn.template.Path...)
		buf = append(buf, " HTTP/1.1\r\nHost: "...)
		buf = append(buf, conn.template.Host...)
		buf = append(buf, "\r\nContent-Type: "...)
		buf = append(buf, ContentType...)
		buf = append(buf, "\r\nAccept: "...)
		buf = append(buf, ContentType...)
		buf = append(buf, "\r\nContent-Length: "...)
		buf = strconv.AppendInt(buf, int64(len(packed)), 10)
		buf = append(buf, "\r\n\r\n"...)
		return append(buf, packed...)
	}
	buf = append(buf, "GET "...)
	buf = append(buf, conn.template.Path...)
	buf = append(buf, "?dns="...)
	n := base64.RawURLEncoding.EncodedLen(len(packed))
	off := len(buf)
	buf = bufpool.Grow(buf, n)
	base64.RawURLEncoding.Encode(buf[off:], packed)
	buf = append(buf, " HTTP/1.1\r\nHost: "...)
	buf = append(buf, conn.template.Host...)
	buf = append(buf, "\r\nAccept: "...)
	buf = append(buf, ContentType...)
	return append(buf, "\r\n\r\n"...)
}

// readLine reads one CRLF-terminated line from the response, returning it
// without the terminator. The slice aliases the bufio buffer and is only
// valid until the next read.
func (conn *Conn) readLine() ([]byte, error) {
	line, err := conn.br.ReadSlice('\n')
	if err != nil {
		return nil, err
	}
	line = line[:len(line)-1]
	if len(line) > 0 && line[len(line)-1] == '\r' {
		line = line[:len(line)-1]
	}
	return line, nil
}

// readResponse parses one HTTP/1.1 response from the session, handling the
// body framings net/http servers emit: Content-Length, chunked, and
// close-delimited. Like the http.ReadResponse path it replaces, the body is
// always drained — even for non-200 statuses — so the keep-alive stream
// stays in sync. The returned body aliases the session's read scratch.
func (conn *Conn) readResponse() (int, []byte, error) {
	line, err := conn.readLine()
	if err != nil {
		return 0, nil, err
	}
	status, err := parseStatusLine(line)
	if err != nil {
		return 0, nil, err
	}
	contentLen := -1
	chunked := false
	for {
		line, err := conn.readLine()
		if err != nil {
			return 0, nil, err
		}
		if len(line) == 0 {
			break
		}
		colon := bytes.IndexByte(line, ':')
		if colon < 0 {
			return 0, nil, errMalformedResponse
		}
		key, val := line[:colon], trimSpace(line[colon+1:])
		switch {
		case headerIs(key, "content-length"):
			n, err := strconv.Atoi(string(val))
			if err != nil || n < 0 {
				return 0, nil, errMalformedResponse
			}
			contentLen = n
		case headerIs(key, "transfer-encoding"):
			chunked = headerIs(val, "chunked")
		}
	}
	body := (*conn.rbuf)[:0]
	switch {
	case chunked:
		for {
			line, err := conn.readLine()
			if err != nil {
				return 0, nil, err
			}
			n, err := strconv.ParseUint(string(line), 16, 31)
			if err != nil {
				return 0, nil, errMalformedResponse
			}
			if n == 0 {
				// Zero chunk then the terminating empty line (trailers
				// are not emitted by the servers this client speaks to).
				if _, err := conn.readLine(); err != nil {
					return 0, nil, err
				}
				break
			}
			off := len(body)
			body = bufpool.Grow(body, int(n))
			if _, err := io.ReadFull(conn.br, body[off:]); err != nil {
				return 0, nil, err
			}
			// Chunk-terminating CRLF.
			if _, err := conn.readLine(); err != nil {
				return 0, nil, err
			}
		}
	case contentLen >= 0:
		body = bufpool.Grow(body, contentLen)
		if _, err := io.ReadFull(conn.br, body); err != nil {
			return 0, nil, err
		}
	default:
		// Close-delimited: the server ends the body by closing.
		for {
			off := len(body)
			body = bufpool.Grow(body, 512)
			n, err := conn.br.Read(body[off:])
			body = body[:off+n]
			if err == io.EOF {
				break
			}
			if err != nil {
				return 0, nil, err
			}
		}
	}
	*conn.rbuf = body
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

// BatchContext issues len(names) queries as one coalesced HTTP/2 burst on a
// multiplexed session and returns the results in query order; see
// dnsclient.Mux.Batch for the burst semantics. It fails on serial sessions.
func (conn *Conn) BatchContext(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	conn.mu.Lock()
	m := conn.mux
	conn.mu.Unlock()
	if m == nil {
		return nil, fmt.Errorf("doh: batch requires a multiplexed (HTTP/2) session")
	}
	return m.Batch(ctx, names, qtype, out)
}

// QueryJSON performs one Google-style JSON API lookup on the session.
func (conn *Conn) QueryJSON(name string, qtype dnswire.Type) (*JSONResponse, error) {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.closed {
		return nil, dnsclient.ErrClosed
	}
	if conn.mux != nil {
		return nil, fmt.Errorf("doh: JSON API not supported on a multiplexed session")
	}
	u := &url.URL{
		Scheme:   "https",
		Host:     conn.template.Host,
		Path:     JSONPath,
		RawQuery: "name=" + url.QueryEscape(name) + "&type=" + fmt.Sprint(uint16(qtype)),
	}
	req, err := http.NewRequest(http.MethodGet, u.String(), nil)
	if err != nil {
		return nil, err
	}
	if err := req.Write(conn.tls); err != nil {
		return nil, err
	}
	resp, err := http.ReadResponse(conn.br, req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("%w: %d", ErrHTTPStatus, resp.StatusCode)
	}
	var jr JSONResponse
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		return nil, err
	}
	return &jr, nil
}

// Close terminates the session.
func (conn *Conn) Close() error {
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.closed {
		return nil
	}
	conn.closed = true
	if conn.mux != nil {
		// Close holds the write lock: once it returns, no query can touch
		// the scratch buffers the h2 framing shares with the session.
		conn.mux.Close()
	}
	bufpool.Put(conn.pbuf)
	bufpool.Put(conn.wbuf)
	bufpool.Put(conn.rbuf)
	conn.pbuf, conn.wbuf, conn.rbuf = nil, nil, nil
	conn.tls.Close()
	return conn.raw.Close()
}

// Query is the one-shot convenience: resolve, dial, query once, close. The
// latency includes bootstrap-free connection establishment (no-reuse case).
func (c *Client) Query(t Template, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	return c.QueryContext(context.Background(), t, name, qtype)
}

// QueryContext is the one-shot convenience, bounded by ctx: resolve, dial,
// query once, close.
func (c *Client) QueryContext(ctx context.Context, t Template, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	addr, err := c.ResolveContext(ctx, t.Host)
	if err != nil {
		return nil, err
	}
	conn, err := c.DialContext(ctx, t, addr)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	res, err := conn.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	res.Latency = conn.Elapsed()
	return res, nil
}
