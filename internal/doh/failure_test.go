package doh

import (
	"bufio"
	"bytes"
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"io"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// rawTLS opens a TLS connection to the fixture's DoH server without the DoH
// client, for protocol-level fault injection, offering protos by ALPN.
func rawTLS(t *testing.T, f *fixture, protos ...string) *tls.Conn {
	t.Helper()
	raw, err := f.world.Dial(clientIP, dohIP, Port)
	if err != nil {
		t.Fatal(err)
	}
	raw.SetDeadline(time.Now().Add(2 * time.Second))
	roots := x509.NewCertPool()
	roots.AddCert(f.ca.Cert)
	tc := tls.Client(raw, &tls.Config{
		RootCAs:    roots,
		ServerName: f.tmpl.Host,
		Time:       func() time.Time { return certs.RefTime },
		NextProtos: protos,
	})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	return tc
}

// One DoH listener keeps one TLS config, so its session tickets outlive the
// connection that issued them and a client with a session cache resumes.
func TestServerResumesSessions(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	roots := x509.NewCertPool()
	roots.AddCert(f.ca.Cert)
	cache := tls.NewLRUClientSessionCache(8)
	for i, want := range []bool{false, true} {
		raw, err := f.world.Dial(clientIP, dohIP, Port)
		if err != nil {
			t.Fatal(err)
		}
		raw.SetDeadline(time.Now().Add(2 * time.Second))
		tc := tls.Client(raw, &tls.Config{
			RootCAs:            roots,
			ServerName:         f.tmpl.Host,
			Time:               func() time.Time { return certs.RefTime },
			ClientSessionCache: cache,
		})
		// One exchange, whose read takes the session ticket first.
		req, err := http.NewRequest(http.MethodGet, "https://"+f.tmpl.Host+"/", nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := req.Write(tc); err != nil {
			t.Fatal(err)
		}
		if _, err := http.ReadResponse(bufio.NewReader(tc), req); err != nil {
			t.Fatal(err)
		}
		if got := tc.ConnectionState().DidResume; got != want {
			t.Errorf("dial %d: resumed = %v, want %v", i+1, got, want)
		}
		tc.Close()
	}
}

// rawRequest is one hand-built request: target is the path with any query,
// and a nil body sends none.
type rawRequest struct {
	method, target, ctype string
	body                  []byte
}

// httpVersion is one HTTP version of the server binding: how a raw client
// sends one request and reads back its status, and the client MaxInFlight
// that dials it.
var httpVersions = []struct {
	name     string
	inflight int
	do       func(t *testing.T, f *fixture, r rawRequest) int
}{
	{"h1", 0, h1Do},
	{"h2", 4, h2Do},
}

func h1Do(t *testing.T, f *fixture, r rawRequest) int {
	t.Helper()
	tc := rawTLS(t, f)
	defer tc.Close()
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, "https://"+f.tmpl.Host+r.target, body)
	if err != nil {
		t.Fatal(err)
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	if err := req.Write(tc); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(tc), req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	return resp.StatusCode
}

// h2Do is a minimal HTTP/2 client: ALPN h2, preface and SETTINGS, one
// HEADERS frame on stream 1 (plus a DATA frame when there is a body), then
// the reply's frames up to END_STREAM.
func h2Do(t *testing.T, f *fixture, r rawRequest) int {
	t.Helper()
	tc := rawTLS(t, f, "h2")
	defer tc.Close()
	br := bufio.NewReader(tc)
	if err := startH2(tc, br); err != nil {
		t.Fatal(err)
	}
	block := dnswire.AppendHpackLiteral(nil, ":method", r.method)
	block = dnswire.AppendHpackLiteral(block, ":scheme", "https")
	block = dnswire.AppendHpackLiteral(block, ":authority", f.tmpl.Host)
	block = dnswire.AppendHpackLiteral(block, ":path", r.target)
	if r.ctype != "" {
		block = dnswire.AppendHpackLiteral(block, "content-type", r.ctype)
	}
	flags := dnswire.H2FlagEndHeaders
	if r.body == nil {
		flags |= dnswire.H2FlagEndStream
	}
	out := h2Frame(t, dnswire.H2FrameHeaders, flags, 1, block)
	if r.body != nil {
		out = append(out, h2Frame(t, dnswire.H2FrameData, dnswire.H2FlagEndStream, 1, r.body)...)
	}
	if _, err := tc.Write(out); err != nil {
		t.Fatal(err)
	}
	status := 0
	for {
		fr, payload, err := dnswire.ReadH2FrameAppend(br, nil)
		if err != nil {
			t.Fatal(err)
		}
		if fr.StreamID != 1 {
			continue
		}
		if fr.Type == dnswire.H2FrameHeaders {
			status = parseH2Status(payload)
		}
		if fr.EndStream() {
			return status
		}
	}
}

// expectStatus sends r over each HTTP version and checks the status.
func expectStatus(t *testing.T, r rawRequest, want int) {
	for _, v := range httpVersions {
		t.Run(v.name, func(t *testing.T) {
			f := newFixture(t)
			f.serve(t, &Server{Handler: f.zone})
			if got := v.do(t, f, r); got != want {
				t.Errorf("status = %d, want %d", got, want)
			}
		})
	}
}

func TestServerDropsHTTPGarbage(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	tc.Write([]byte("NOT AN HTTP REQUEST\r\n\r\n")) //nolint:errcheck
	buf := make([]byte, 1)
	if _, err := tc.Read(buf); err != io.EOF {
		t.Errorf("read after garbage = %v, want EOF", err)
	}
}

func TestServerRejectsBadBase64(t *testing.T) {
	expectStatus(t, rawRequest{method: http.MethodGet, target: DefaultPath + "?dns=!!!not-base64!!!"}, http.StatusBadRequest)
}

func TestServerRejectsMissingDNSParam(t *testing.T) {
	expectStatus(t, rawRequest{method: http.MethodGet, target: DefaultPath}, http.StatusBadRequest)
}

func TestServerRejectsWrongContentType(t *testing.T) {
	expectStatus(t, rawRequest{method: http.MethodPost, target: DefaultPath, ctype: "text/plain", body: []byte("x")}, http.StatusUnsupportedMediaType)
}

func TestServerRejectsUnsupportedMethod(t *testing.T) {
	expectStatus(t, rawRequest{method: http.MethodPut, target: DefaultPath + "?dns=AAAA"}, http.StatusMethodNotAllowed)
}

func TestServerRejectsMalformedDNSMessage(t *testing.T) {
	// Valid base64url, but not a DNS message.
	expectStatus(t, rawRequest{method: http.MethodGet, target: DefaultPath + "?dns=AAEC"}, http.StatusBadRequest)
}

func TestKeepAliveSurvivesErrorResponses(t *testing.T) {
	for _, tc := range []struct {
		name string
		bad  rawRequest
	}{
		{"missing dns parameter", rawRequest{method: http.MethodGet, target: DefaultPath}},
		// No handler reads this body, so the server must skip it, or the
		// next request parses from inside it.
		{"unread body", rawRequest{method: http.MethodPost, target: "/missing", ctype: "text/plain", body: []byte("hello")}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.serve(t, &Server{Handler: f.zone})
			conn := rawTLS(t, f)
			defer conn.Close()
			br := bufio.NewReader(conn)
			// A bad request followed by a good one on the same connection.
			var body io.Reader
			if tc.bad.body != nil {
				body = bytes.NewReader(tc.bad.body)
			}
			bad, err := http.NewRequest(tc.bad.method, "https://"+f.tmpl.Host+tc.bad.target, body)
			if err != nil {
				t.Fatal(err)
			}
			if tc.bad.ctype != "" {
				bad.Header.Set("Content-Type", tc.bad.ctype)
			}
			if err := bad.Write(conn); err != nil {
				t.Fatal(err)
			}
			resp1, err := http.ReadResponse(br, bad)
			if err != nil {
				t.Fatal(err)
			}
			io.Copy(io.Discard, resp1.Body) //nolint:errcheck
			resp1.Body.Close()

			h1 := &h1Framing{binding: binding{method: GET, template: f.tmpl, pbuf: new([]byte)}}
			good, err := h1.AppendQuery(nil, 0, "after-error.measure.example.org", dnswire.TypeA)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := conn.Write(good); err != nil {
				t.Fatal(err)
			}
			resp2, err := http.ReadResponse(br, nil)
			if err != nil {
				t.Fatalf("second request on same conn: %v", err)
			}
			defer resp2.Body.Close()
			if resp2.StatusCode != http.StatusOK {
				t.Errorf("status = %d, want 200", resp2.StatusCode)
			}
		})
	}
}

// A server cannot size the client's reply buffer: a Content-Length or
// chunk that would take the body past maxBody fails the query before the
// buffer grows, so the query allocates nowhere near what was claimed.
func TestH1BodyLimit(t *testing.T) {
	for _, tc := range []struct{ name, head string }{
		{"1 GiB", "Content-Length: 1073741824\r\n\r\n"},
		{"max int64", "Content-Length: 9223372036854775807\r\n\r\n"},
		{"16 MiB chunk", "Transfer-Encoding: chunked\r\n\r\nffffff\r\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			cert := f.leaf(t).TLSCertificate()
			// The server answers the first request with the header alone,
			// then hangs up.
			f.world.RegisterStream(dohIP, Port, func(conn *netsim.Conn) {
				defer conn.Close()
				srv := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
				defer srv.Close()
				if srv.Handshake() != nil {
					return
				}
				if _, err := http.ReadRequest(bufio.NewReader(srv)); err != nil {
					return
				}
				srv.Write([]byte("HTTP/1.1 200 OK\r\n" + tc.head)) //nolint:errcheck
			})
			conn, err := f.dial(t, f.client(), f.tmpl)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err = conn.Query("big.measure.example.org", dnswire.TypeA)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, errBodyTooLarge) {
				t.Errorf("err = %v, want the body limit", err)
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
				t.Errorf("query allocated %d bytes, want under 1 MiB", grew)
			}
		})
	}
}

// The JSON API reads its reply with net/http's codec, whose head and body
// are as long as the server makes them, under the bounds the server keeps
// on a request: a Content-Length past maxBody fails the query before the
// body is read, a body that streams past maxBody fails it once one octet
// more is in, and so does a head past maxHead.
func TestJSONReplyLimit(t *testing.T) {
	entry := `{"name":"big.measure.example.org.","type":1,"TTL":60,"data":"203.0.113.1"}`
	big := `{"Status":0,"Answer":[` + strings.Repeat(entry+",", (8<<20)/len(entry)) + entry + `]}`
	for _, tc := range []struct {
		name, head, body string
		want             error
		bounded          bool // the query must allocate under 1 MiB
	}{
		{name: "1 GiB Content-Length", head: "Content-Length: 1073741824\r\n\r\n", want: errBodyTooLarge, bounded: true},
		{name: "8 MiB streamed", head: "Content-Type: application/json\r\n\r\n", body: big, want: errBodyTooLarge},
		{name: "8 MiB head", head: "X-Pad: " + strings.Repeat("a", 8<<20) + "\r\n\r\n", body: "{}", want: errHeadTooLarge},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			cert := f.leaf(t).TLSCertificate()
			// The server answers the request with the head and whatever
			// body the row sends, then hangs up, which ends a body without
			// a Content-Length.
			f.world.RegisterStream(dohIP, Port, func(conn *netsim.Conn) {
				defer conn.Close()
				srv := tls.Server(conn, &tls.Config{Certificates: []tls.Certificate{cert}})
				defer srv.Close()
				if srv.Handshake() != nil {
					return
				}
				if _, err := http.ReadRequest(bufio.NewReader(srv)); err != nil {
					return
				}
				if _, err := srv.Write([]byte("HTTP/1.1 200 OK\r\n" + tc.head)); err != nil {
					return
				}
				srv.Write([]byte(tc.body)) //nolint:errcheck
			})
			raw := f.stream(t)
			var err error
			grew := allocatedBy(func() {
				_, err = f.client().QueryJSON(context.Background(), f.tmpl, raw, "big.measure.example.org", dnswire.TypeA)
			})
			if !errors.Is(err, tc.want) {
				t.Errorf("err = %v, want %v", err, tc.want)
			}
			if tc.bounded && grew >= 1<<20 {
				t.Errorf("query allocated %d bytes, want under 1 MiB", grew)
			}
		})
	}
}

// oversend writes next(i) for i = 0, 1, … until limit octets went out or a
// write fails because the server ended the session, then reads until the
// server's close. The request never completes: a server that waits for the
// rest of it keeps the session open, and the read times out.
func oversend(t *testing.T, tc *tls.Conn, limit int, next func(i int) []byte) {
	t.Helper()
	for i, sent := 0, 0; sent < limit; i++ {
		b := next(i)
		if _, err := tc.Write(b); err != nil {
			break
		}
		sent += len(b)
	}
	if _, err := io.Copy(io.Discard, tc); err != nil {
		t.Fatalf("session still open past the bound: %v", err)
	}
}

// allocatedBy reports the octets the process allocated while run ran.
func allocatedBy(run func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// boundAlloc is what an exchange that passes a server bound may allocate,
// both ends together. Each test sends a small multiple of its bound, so
// what the client has sent by the time the session ends stays small too.
const boundAlloc = 2 << 20

// A request line that never ends passes maxHead: the server ends the
// session instead of buffering the line.
func TestServerBoundsH1Head(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	chunk := bytes.Repeat([]byte("A"), 1024)
	grew := allocatedBy(func() {
		oversend(t, tc, 4*maxHead, func(i int) []byte {
			if i == 0 {
				return append([]byte("GET /"), chunk[5:]...)
			}
			return chunk
		})
	})
	if grew >= boundAlloc {
		t.Errorf("exchange allocated %d octets, want under %d", grew, boundAlloc)
	}
}

// A POST body that passes maxBody ends the session on either HTTP version,
// whether its length is declared up front or not.
func TestServerBoundsBody(t *testing.T) {
	data := make([]byte, 1024)
	for _, tc := range []struct {
		name   string
		protos []string
		// head opens the request; chunk carries the next part of its body.
		head, chunk func(t *testing.T, f *fixture) []byte
	}{
		{"h1 Content-Length", nil,
			func(t *testing.T, f *fixture) []byte { return h1PostHead(f, "Content-Length: 100000000") },
			func(t *testing.T, f *fixture) []byte { return data }},
		{"h1 chunked", nil,
			func(t *testing.T, f *fixture) []byte { return h1PostHead(f, "Transfer-Encoding: chunked") },
			func(t *testing.T, f *fixture) []byte { return append(append([]byte("400\r\n"), data...), "\r\n"...) }},
		{"h2", []string{"h2"},
			func(t *testing.T, f *fixture) []byte { return h2PostHeaders(t, f, 1) },
			func(t *testing.T, f *fixture) []byte { return h2Frame(t, dnswire.H2FrameData, 0, 1, data) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			f.serve(t, &Server{Handler: f.zone})
			conn := rawTLS(t, f, tc.protos...)
			defer conn.Close()
			if tc.protos != nil {
				if err := startH2(conn, bufio.NewReader(conn)); err != nil {
					t.Fatal(err)
				}
			}
			head, chunk := tc.head(t, f), tc.chunk(t, f)
			grew := allocatedBy(func() {
				oversend(t, conn, 2*maxBody, func(i int) []byte {
					if i == 0 {
						return head
					}
					return chunk
				})
			})
			if grew >= boundAlloc {
				t.Errorf("exchange allocated %d octets, want under %d", grew, boundAlloc)
			}
		})
	}
}

// An h2 session holds at most maxStreams POST streams open: with that many
// open it still answers, and one more ends the session.
func TestServerBoundsH2Streams(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f, "h2")
	defer tc.Close()
	br := bufio.NewReader(tc)
	if err := startH2(tc, br); err != nil {
		t.Fatal(err)
	}
	grew := allocatedBy(func() {
		var open []byte
		for sid := uint32(1); sid < 2*maxStreams; sid += 2 {
			open = append(open, h2PostHeaders(t, f, sid)...)
		}
		query, err := dnswire.NewQuery(0, "open.measure.example.org", dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		open = append(open, h2Frame(t, dnswire.H2FrameData, dnswire.H2FlagEndStream, 1, query)...)
		if _, err := tc.Write(open); err != nil {
			t.Fatal(err)
		}
		for {
			fr, payload, err := dnswire.ReadH2FrameAppend(br, nil)
			if err != nil {
				t.Fatalf("session ended with %d POST streams open: %v", maxStreams, err)
			}
			if fr.StreamID == 1 && fr.Type == dnswire.H2FrameHeaders && parseH2Status(payload) != http.StatusOK {
				t.Fatalf("stream 1: status %d", parseH2Status(payload))
			}
			if fr.StreamID == 1 && fr.EndStream() {
				break
			}
		}
		// Stream 1 is answered, so two more streams make maxStreams + 1.
		oversend(t, tc, 100*maxStreams, func(i int) []byte {
			return h2PostHeaders(t, f, 2*maxStreams+1+2*uint32(i))
		})
	})
	if grew >= boundAlloc {
		t.Errorf("exchange allocated %d octets, want under %d", grew, boundAlloc)
	}
}

// h1PostHead is an HTTP/1.1 POST head to the wire-format path with one
// more header line that sizes the body.
func h1PostHead(f *fixture, sizing string) []byte {
	return []byte("POST " + DefaultPath + " HTTP/1.1\r\nHost: " + f.tmpl.Host +
		"\r\nContent-Type: " + ContentType + "\r\n" + sizing + "\r\n\r\n")
}

// h2PostHeaders opens POST stream sid to the wire-format path: a HEADERS
// frame without END_STREAM.
func h2PostHeaders(t *testing.T, f *fixture, sid uint32) []byte {
	block := dnswire.AppendHpackLiteral(nil, ":method", http.MethodPost)
	block = dnswire.AppendHpackLiteral(block, ":scheme", "https")
	block = dnswire.AppendHpackLiteral(block, ":authority", f.tmpl.Host)
	block = dnswire.AppendHpackLiteral(block, ":path", DefaultPath)
	block = dnswire.AppendHpackLiteral(block, "content-type", ContentType)
	return h2Frame(t, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, sid, block)
}
