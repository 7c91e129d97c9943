// Package doh implements DNS over HTTPS (RFC 8484): a server supporting the
// wire-format GET (?dns= base64url) and POST bindings plus a Google-style
// /resolve JSON API, and a client that — like all DoH implementations — is
// Strict-Privacy-only: if the server cannot be authenticated, the lookup
// fails (§2.2, §4.2).
//
// HTTP runs for real over the simulated TLS connections: HTTP/1.1
// keep-alive (the server parses requests and writes responses with
// net/http's wire codecs; the client hand-rolls both) or, when the client
// multiplexes, a minimal HTTP/2 subset (h2.go). One binding per side
// carries RFC 8484 over either version.
package doh

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"encoding/base64"
	"encoding/json"
	"io"
	"net/http"
	"net/netip"
	"strconv"
	"strings"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Port is the DoH port, shared with all other HTTPS traffic.
const Port = 443

// ContentType is the RFC 8484 media type for wire-format messages.
const ContentType = "application/dns-message"

// DefaultPath is the de-facto standard endpoint path ("/dns-query"), used
// by Cloudflare, Quad9 and most public servers; JSONPath is Google's.
const (
	DefaultPath = "/dns-query"
	JSONPath    = "/resolve"
)

// The server's request bounds, one rule for both HTTP versions beside
// maxBody. Passing any of them ends the session, and nothing past a bound
// is buffered.
const (
	// maxHead bounds a request head. It is the h2 frame limit, which
	// already caps a HEADERS block because the server reads no
	// CONTINUATION frames; HTTP/1.1 heads get the same, and so does the
	// head of the client's JSON API reply.
	maxHead = dnswire.MaxH2FrameLen
	// maxStreams bounds the POST streams an h2 session holds open at once:
	// the floor RFC 7540 §6.5.2 recommends for
	// SETTINGS_MAX_CONCURRENT_STREAMS. A GET stream ends in its HEADERS
	// frame and holds no state.
	maxStreams = 100
)

// Server is a DoH server configuration.
type Server struct {
	// Handler answers the DNS queries.
	Handler dnsserver.Handler
	// Paths are the wire-format endpoints (default: /dns-query).
	Paths []string
	// JSONAPI additionally enables the Google-style JSON endpoint at
	// /resolve.
	JSONAPI bool
}

func (s *Server) paths() map[string]bool {
	m := make(map[string]bool)
	if len(s.Paths) == 0 {
		m[DefaultPath] = true
	}
	for _, p := range s.Paths {
		m[p] = true
	}
	return m
}

// Serve registers the DoH server on addr:443 of the world.
func Serve(w *netsim.World, addr netip.Addr, leaf *certs.Leaf, srv *Server) {
	paths := srv.paths()
	// One shared config: session-ticket keys must persist across
	// connections for TLS resumption to work.
	cfg := &tls.Config{
		Certificates: []tls.Certificate{leaf.TLSCertificate()},
		NextProtos:   []string{"h2", "http/1.1"},
	}
	w.RegisterStream(addr, Port, func(conn *netsim.Conn) {
		defer conn.Close()
		tc := tls.Server(conn, cfg)
		defer tc.Close()
		if tc.Handshake() != nil {
			return
		}
		remote := conn.RemoteAddr().(netsim.Addr).IP
		// Clients opting into multiplexing negotiate h2 via ALPN; everyone
		// else (including clients offering no ALPN at all) gets the serial
		// HTTP/1.1 loop.
		if tc.ConnectionState().NegotiatedProtocol == "h2" {
			srv.serveH2(conn, remote, tc, paths)
			return
		}
		srv.serveH1(conn, remote, tc, paths)
	})
}

// serveH1 is the server's per-connection HTTP/1.1 keep-alive loop over rw.
// Each request may read maxHead octets for its head and maxBody for its
// body, each counted from where it starts, including what the buffered
// reader already holds; net/http.Server caps its reads the same way for
// MaxHeaderBytes. A request that needs more ends the session.
func (s *Server) serveH1(conn *netsim.Conn, remote netip.Addr, rw io.ReadWriter, paths map[string]bool) {
	lr := &io.LimitedReader{R: rw}
	br := bufio.NewReader(lr)
	for {
		lr.N = maxHead - int64(br.Buffered())
		req, err := http.ReadRequest(br)
		if err != nil || req.ContentLength > maxBody {
			return
		}
		lr.N = maxBody - int64(br.Buffered())
		resp := s.handle(conn, remote, req, paths)
		// Skip what the handler left of the body, as net/http.Server does,
		// so the next request parses from its own first octet.
		if _, err := io.Copy(io.Discard, req.Body); err != nil || resp == nil {
			return
		}
		if err := resp.Write(rw); err != nil {
			return
		}
		if req.Close || resp.Close {
			return
		}
	}
}

// handle answers one HTTP/1.1 request; nil ends the session.
func (s *Server) handle(conn *netsim.Conn, remote netip.Addr, req *http.Request, paths map[string]bool) *http.Response {
	switch {
	case paths[req.URL.Path]:
		return s.handleWire(conn, remote, req)
	case s.JSONAPI && req.URL.Path == JSONPath:
		return s.handleJSON(conn, remote, req)
	default:
		return httpResponse(req, http.StatusNotFound, "text/plain", []byte("not found"))
	}
}

// handleWire answers an HTTP/1.1 request to a wire-format path through the
// shared RFC 8484 binding. A POST body that does not end within serveH1's
// read bound ends the session (nil).
func (s *Server) handleWire(conn *netsim.Conn, remote netip.Addr, req *http.Request) *http.Response {
	var body []byte
	if req.Method == http.MethodPost {
		var err error
		if body, err = io.ReadAll(req.Body); err != nil {
			return nil
		}
	}
	status, resp, text := s.answer(conn, remote, req.Method, queryParam(req.URL.RawQuery, "dns"), req.Header.Get("Content-Type"), body)
	if resp == nil {
		return httpResponse(req, status, "text/plain", []byte(text))
	}
	packed, err := resp.Pack()
	if err != nil {
		return httpResponse(req, http.StatusInternalServerError, "text/plain", []byte("pack error"))
	}
	return httpResponse(req, status, ContentType, packed)
}

// answer is the server half of RFC 8484's wire-format binding, shared by
// the HTTP/1.1 and HTTP/2 loops, for one request to a wire-format path. A
// GET carries the query in dns, its dns parameter as queryParam extracted
// it (base64url, unpadded); a POST carries it in body, which must be typed
// ContentType (ctype). The handler's processing time is charged to conn.
// It returns 200 with the response, or an error status with its text.
func (s *Server) answer(conn *netsim.Conn, remote netip.Addr, method, dns, ctype string, body []byte) (int, *dnswire.Message, string) {
	switch method {
	case http.MethodGet:
		if dns == "" {
			return http.StatusBadRequest, nil, "missing dns parameter"
		}
		var err error
		if body, err = base64.RawURLEncoding.DecodeString(dns); err != nil {
			return http.StatusBadRequest, nil, "bad dns parameter"
		}
	case http.MethodPost:
		if ctype != ContentType {
			return http.StatusUnsupportedMediaType, nil, "want " + ContentType
		}
	default:
		return http.StatusMethodNotAllowed, nil, "GET or POST"
	}
	m, err := dnswire.Unpack(body)
	if err != nil {
		return http.StatusBadRequest, nil, "malformed DNS message"
	}
	resp, proc := s.Handler.ServeDNS(remote, m)
	conn.AddLatency(proc)
	return http.StatusOK, resp, ""
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

// JSONAnswer is one answer record in the JSON API response.
type JSONAnswer struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
	TTL  uint32 `json:"TTL"`
	Data string `json:"data"`
}

// JSONResponse is the Google-style JSON API response body.
type JSONResponse struct {
	Status   int          `json:"Status"`
	TC       bool         `json:"TC"`
	RD       bool         `json:"RD"`
	RA       bool         `json:"RA"`
	Question []JSONQ      `json:"Question"`
	Answer   []JSONAnswer `json:"Answer,omitempty"`
}

// JSONQ is the question echo in the JSON API response.
type JSONQ struct {
	Name string `json:"name"`
	Type uint16 `json:"type"`
}

func (s *Server) handleJSON(conn *netsim.Conn, remote netip.Addr, req *http.Request) *http.Response {
	name := req.URL.Query().Get("name")
	if name == "" {
		return httpResponse(req, http.StatusBadRequest, "text/plain", []byte("missing name"))
	}
	qtype := dnswire.TypeA
	if ts := req.URL.Query().Get("type"); ts != "" {
		if t, ok := dnswire.ParseType(strings.ToUpper(ts)); ok {
			qtype = t
		} else if n, err := strconv.Atoi(ts); err == nil {
			qtype = dnswire.Type(n)
		}
	}
	q := dnswire.NewQuery(0, name, qtype)
	resp, proc := s.Handler.ServeDNS(remote, q)
	conn.AddLatency(proc)

	jr := JSONResponse{
		Status: int(resp.Rcode),
		RD:     true, RA: true,
		Question: []JSONQ{{Name: dnswire.CanonicalName(name), Type: uint16(qtype)}},
	}
	for _, rr := range resp.Answers {
		jr.Answer = append(jr.Answer, JSONAnswer{
			Name: rr.Name, Type: uint16(rr.Type()), TTL: rr.TTL, Data: rr.Data.String(),
		})
	}
	body, _ := json.Marshal(jr)
	return httpResponse(req, http.StatusOK, "application/json", body)
}

func httpResponse(req *http.Request, status int, contentType string, body []byte) *http.Response {
	return &http.Response{
		StatusCode:    status,
		ProtoMajor:    1,
		ProtoMinor:    1,
		Request:       req,
		Header:        http.Header{"Content-Type": []string{contentType}},
		Body:          io.NopCloser(bytes.NewReader(body)),
		ContentLength: int64(len(body)),
	}
}

// UDPBackendForwarder reproduces the Quad9 misconfiguration of Finding 2.4:
// the DoH front-end forwards every query to its own clear-text DNS backend
// over UDP and waits at most Timeout (Quad9 used 2 seconds); when recursive
// resolution takes longer — busy networks, faraway nameservers — the client
// gets an unnecessary SERVFAIL.
type UDPBackendForwarder struct {
	World   *netsim.World
	From    netip.Addr // the DoH server's own address
	Backend netip.Addr // its DNS/UDP backend
	Timeout time.Duration
	// ExtraBackendLatency, when non-nil, adds client-dependent backend
	// latency (anycast PoPs near some clients have warm caches and close
	// backends; faraway clients land on busier paths — the reason the
	// SERVFAIL rate differed between the global and censored platforms).
	ExtraBackendLatency func(remote netip.Addr) time.Duration
}

// ServeDNS implements dnsserver.Handler.
func (f *UDPBackendForwarder) ServeDNS(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	servfail := func(proc time.Duration) (*dnswire.Message, time.Duration) {
		resp := req.Reply()
		resp.Rcode = dnswire.RcodeServFail
		return resp, proc
	}
	packed, err := req.Pack()
	if err != nil {
		return servfail(time.Millisecond)
	}
	raw, elapsed, err := f.World.Exchange(f.From, f.Backend, 53, packed)
	if err != nil {
		return servfail(f.Timeout)
	}
	if f.ExtraBackendLatency != nil {
		elapsed += f.ExtraBackendLatency(remote)
	}
	if elapsed > f.Timeout {
		// The backend answered, but after the front-end gave up.
		return servfail(f.Timeout)
	}
	m, err := dnswire.Unpack(raw)
	if err != nil {
		return servfail(elapsed)
	}
	resp := req.Reply()
	resp.Rcode = m.Rcode
	resp.Answers = append(resp.Answers, m.Answers...)
	return resp, elapsed
}
