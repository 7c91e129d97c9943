package doh

import (
	"bufio"
	"crypto/tls"
	"crypto/x509"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
)

// rawTLS opens a TLS connection to the fixture's DoH server without the DoH
// client, for protocol-level fault injection.
func rawTLS(t *testing.T, f *fixture) *tls.Conn {
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
	})
	if err := tc.Handshake(); err != nil {
		t.Fatal(err)
	}
	return tc
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
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	req, _ := http.NewRequest(http.MethodGet, "https://"+f.tmpl.Host+DefaultPath+"?dns=!!!not-base64!!!", nil)
	if err := req.Write(tc); err != nil {
		t.Fatal(err)
	}
	resp, err := http.ReadResponse(bufio.NewReader(tc), req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestServerRejectsMissingDNSParam(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	req, _ := http.NewRequest(http.MethodGet, "https://"+f.tmpl.Host+DefaultPath, nil)
	req.Write(tc) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(tc), req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
}

func TestServerRejectsWrongContentType(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	body := strings.NewReader("x")
	req, _ := http.NewRequest(http.MethodPost, "https://"+f.tmpl.Host+DefaultPath, body)
	req.Header.Set("Content-Type", "text/plain")
	req.Write(tc) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(tc), req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusUnsupportedMediaType {
		t.Errorf("status = %d, want 415", resp.StatusCode)
	}
}

func TestServerRejectsUnsupportedMethod(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	req, _ := http.NewRequest(http.MethodPut, "https://"+f.tmpl.Host+DefaultPath+"?dns=AAAA", nil)
	req.Write(tc) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(tc), req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("status = %d, want 405", resp.StatusCode)
	}
}

func TestServerRejectsMalformedDNSMessage(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	tc := rawTLS(t, f)
	defer tc.Close()
	// Valid base64url, but not a DNS message.
	req, _ := http.NewRequest(http.MethodGet, "https://"+f.tmpl.Host+DefaultPath+"?dns=AAEC", nil)
	req.Write(tc) //nolint:errcheck
	resp, err := http.ReadResponse(bufio.NewReader(tc), req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("status = %d, want 400", resp.StatusCode)
	}
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

	q := dnswire.NewQuery(0, "after-error.measure.example.org", dnswire.TypeA)
	packed, _ := q.Pack()
	conn := &Conn{client: &Client{Method: GET}, template: f.tmpl}
	if _, err := tc.Write(conn.appendRequest(nil, packed)); err != nil {
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
