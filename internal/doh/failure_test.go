package doh

import (
	"bufio"
	"bytes"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"io"
	"net/http"
	"runtime"
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
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	br := bufio.NewReader(tc)
	// A bad request followed by a good one on the same connection.
	bad, _ := http.NewRequest(http.MethodGet, "https://"+f.tmpl.Host+DefaultPath, nil)
	bad.Write(tc) //nolint:errcheck
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
	if _, err := tc.Write(good); err != nil {
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
			conn, err := f.client().Dial(f.tmpl, dohIP)
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
