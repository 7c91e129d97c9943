package doh

import (
	"context"
	"crypto/tls"
	"crypto/x509"
	"errors"
	"net/netip"
	"strings"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	clientIP = netip.MustParseAddr("10.1.0.2")
	dohIP    = netip.MustParseAddr("192.0.2.200")
	answerIP = netip.MustParseAddr("203.0.113.1")
)

type fixture struct {
	world *netsim.World
	ca    *certs.CA
	zone  *dnsserver.Zone
	tmpl  Template
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := netsim.NewWorld(13)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL"})
	ca, err := certs.NewCA("DoE Root", true)
	if err != nil {
		t.Fatal(err)
	}
	z := dnsserver.NewZone("measure.example.org")
	z.WildcardA = answerIP
	return &fixture{world: w, ca: ca, zone: z, tmpl: Template{Host: "dns.provider.example", Path: DefaultPath}}
}

func (f *fixture) serve(t *testing.T, srv *Server) {
	t.Helper()
	Serve(f.world, dohIP, f.leaf(t), srv)
}

// leaf issues the server certificate for the template host.
func (f *fixture) leaf(t *testing.T) *certs.Leaf {
	t.Helper()
	leaf, err := f.ca.Issue(certs.LeafOptions{
		CommonName: f.tmpl.Host,
		IPs:        []netip.Addr{dohIP},
	})
	if err != nil {
		t.Fatal(err)
	}
	return leaf
}

func (f *fixture) client() *Client {
	return &Client{Roots: certs.Pool(f.ca)}
}

// stream opens a fresh stream from the client address to the server.
func (f *fixture) stream(t *testing.T) *netsim.Conn {
	t.Helper()
	raw, err := f.world.Dial(clientIP, dohIP, Port)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// dial opens a session with c for tmpl over a fresh stream.
func (f *fixture) dial(t *testing.T, c *Client, tmpl Template) (*Conn, error) {
	t.Helper()
	return c.DialConnContext(context.Background(), tmpl, f.stream(t))
}

// query is the one-shot lookup: dial a session for the template, query
// once, close.
func (f *fixture) query(t *testing.T, c *Client, name string) (*dnsclient.Result, error) {
	t.Helper()
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	return conn.Query(name, dnswire.TypeA)
}

func TestParseTemplate(t *testing.T) {
	tmpl, err := ParseTemplate("https://dns.example.com/dns-query{?dns}")
	if err != nil {
		t.Fatal(err)
	}
	if tmpl.Host != "dns.example.com" || tmpl.Path != "/dns-query" {
		t.Errorf("template = %+v", tmpl)
	}
	if tmpl.String() != "https://dns.example.com/dns-query{?dns}" {
		t.Errorf("String = %q", tmpl.String())
	}
	if _, err := ParseTemplate("http://insecure.example/dns-query"); err == nil {
		t.Error("accepted http scheme")
	}
}

func TestGETQuery(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.client()
	res, err := f.query(t, c, "probe-g.measure.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

func TestPOSTQuery(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	c := f.client()
	c.Method = POST
	res, err := f.query(t, c, "probe-p.measure.example.org")
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := res.FirstA(); !ok || a != answerIP {
		t.Errorf("answer = %v", res.Msg.Answers)
	}
}

func TestConnectionReuse(t *testing.T) {
	f := newFixture(t)
	f.world.JitterFrac = 0
	f.serve(t, &Server{Handler: f.zone})
	c := f.client()
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var last time.Duration
	for i := 0; i < 4; i++ {
		res, err := conn.Query("reuse.measure.example.org", dnswire.TypeA)
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		last = res.Latency
	}
	if last >= conn.SetupLatency() {
		t.Errorf("reused query latency %v not below setup %v", last, conn.SetupLatency())
	}
}

func TestStrictOnlyRejectsUntrustedCert(t *testing.T) {
	f := newFixture(t)
	rogue, err := certs.NewCA("Rogue CA", false)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := rogue.Issue(certs.LeafOptions{CommonName: f.tmpl.Host, IPs: []netip.Addr{dohIP}})
	if err != nil {
		t.Fatal(err)
	}
	Serve(f.world, dohIP, leaf, &Server{Handler: f.zone})
	c := f.client()
	_, err = f.query(t, c, "x.measure.example.org")
	if !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v, want ErrAuthFailed (DoH is strict-only)", err)
	}
	// The wrap preserves the TLS cause so callers can tell an untrusted
	// issuer apart from expiry or a timeout.
	var uae x509.UnknownAuthorityError
	if !errors.As(err, &uae) {
		t.Errorf("err = %v, want x509.UnknownAuthorityError via errors.As", err)
	}
}

// TestStrictFailureErrorParity pins what a strict-profile failure returns
// for each way a chain can fail: the sentinel, the crypto/tls wrapper, the
// x509 cause and the full text, as crypto/tls's own verification produced
// them.
func TestStrictFailureErrorParity(t *testing.T) {
	const prefix = "doh: server authentication failed: tls: failed to verify certificate: "
	cases := []struct {
		name  string
		issue func(f *fixture) (*certs.Leaf, error)
		cause func(err error) bool
		text  func(leaf *certs.Leaf) string
	}{
		{
			name: "untrusted issuer",
			issue: func(f *fixture) (*certs.Leaf, error) {
				rogue, err := certs.NewCA("Rogue CA", false)
				if err != nil {
					return nil, err
				}
				return rogue.Issue(certs.LeafOptions{CommonName: f.tmpl.Host, IPs: []netip.Addr{dohIP}})
			},
			cause: func(err error) bool {
				var uae x509.UnknownAuthorityError
				return errors.As(err, &uae)
			},
			text: func(*certs.Leaf) string { return "x509: certificate signed by unknown authority" },
		},
		{
			name: "hostname mismatch",
			issue: func(f *fixture) (*certs.Leaf, error) {
				return f.ca.Issue(certs.LeafOptions{CommonName: "other.example", IPs: []netip.Addr{dohIP}})
			},
			cause: func(err error) bool {
				var he x509.HostnameError
				return errors.As(err, &he)
			},
			text: func(*certs.Leaf) string {
				return "x509: certificate is valid for other.example, not dns.provider.example"
			},
		},
		{
			name: "expired leaf",
			issue: func(f *fixture) (*certs.Leaf, error) {
				return f.ca.IssueExpired(certs.LeafOptions{CommonName: f.tmpl.Host, IPs: []netip.Addr{dohIP}}, 30*24*time.Hour)
			},
			cause: func(err error) bool {
				var cie x509.CertificateInvalidError
				return errors.As(err, &cie) && cie.Reason == x509.Expired
			},
			text: func(leaf *certs.Leaf) string {
				return "x509: certificate has expired or is not yet valid: current time 2019-05-01T00:00:00Z is after " +
					leaf.Cert.NotAfter.UTC().Format(time.RFC3339)
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newFixture(t)
			leaf, err := tc.issue(f)
			if err != nil {
				t.Fatal(err)
			}
			Serve(f.world, dohIP, leaf, &Server{Handler: f.zone})
			_, err = f.query(t, f.client(), "x.measure.example.org")
			if !errors.Is(err, ErrAuthFailed) {
				t.Errorf("err = %v, want ErrAuthFailed", err)
			}
			var cve *tls.CertificateVerificationError
			if !errors.As(err, &cve) {
				t.Errorf("err = %v, want *tls.CertificateVerificationError via errors.As", err)
			}
			if !tc.cause(err) {
				t.Errorf("err = %v, want its x509 cause via errors.As", err)
			}
			if want := prefix + tc.text(leaf); err == nil || err.Error() != want {
				t.Errorf("err = %v\nwant    %s", err, want)
			}
		})
	}
}

// TestStrictRefusesTemplateWithoutHost: with no host there is no name to
// authenticate, so a strict DoH dial must fail rather than accept any
// chain the roots trust.
func TestStrictRefusesTemplateWithoutHost(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone})
	conn, err := f.dial(t, f.client(), Template{Path: DefaultPath})
	if err == nil {
		conn.Close()
	}
	if !errors.Is(err, ErrAuthFailed) {
		t.Errorf("err = %v, want ErrAuthFailed", err)
	}
}

func TestJSONAPI(t *testing.T) {
	f := newFixture(t)
	f.serve(t, &Server{Handler: f.zone, JSONAPI: true})
	jr, err := f.client().QueryJSON(context.Background(), f.tmpl, f.stream(t), "json.measure.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if jr.Status != 0 || len(jr.Answer) != 1 || jr.Answer[0].Data != answerIP.String() {
		t.Errorf("json response = %+v", jr)
	}
}

// Neither "/", where a public resolver's landing page would sit, nor any
// other path outside the server's wire-format endpoints answers DNS: a
// query there is an HTTP error, over either HTTP version.
func TestWebpageAndUnknownPath(t *testing.T) {
	for _, v := range httpVersions {
		t.Run(v.name, func(t *testing.T) {
			f := newFixture(t)
			f.serve(t, &Server{Handler: f.zone})
			c := f.client()
			c.MaxInFlight = v.inflight
			for _, path := range []string{"/", "/not-the-endpoint"} {
				conn, err := f.dial(t, c, Template{Host: f.tmpl.Host, Path: path})
				if err != nil {
					t.Fatal(err)
				}
				if _, err := conn.Query("x.measure.example.org", dnswire.TypeA); !errors.Is(err, ErrHTTPStatus) {
					t.Errorf("path %s: err = %v, want ErrHTTPStatus", path, err)
				}
				conn.Close()
			}
		})
	}
}

// A reply the server cannot pack comes back as a 500, which fails that
// query alone: the next query on the same session is answered, over
// either HTTP version.
func TestErrorStatusFailsOneQuery(t *testing.T) {
	for _, v := range httpVersions {
		t.Run(v.name, func(t *testing.T) {
			f := newFixture(t)
			f.serve(t, &Server{Handler: dnsserver.HandlerFunc(func(remote netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
				resp, proc := f.zone.ServeDNS(remote, req)
				if strings.HasPrefix(req.Question1().Name, "unpackable.") {
					resp.AddAnswer(strings.Repeat("x", 64)+".example.org", 60, dnswire.A{Addr: answerIP})
				}
				return resp, proc
			})})
			c := f.client()
			c.MaxInFlight = v.inflight
			conn, err := f.dial(t, c, f.tmpl)
			if err != nil {
				t.Fatal(err)
			}
			defer conn.Close()
			if _, err := conn.Query("unpackable.measure.example.org", dnswire.TypeA); !errors.Is(err, ErrHTTPStatus) {
				t.Errorf("unpackable reply: err = %v, want ErrHTTPStatus", err)
			}
			res, err := conn.Query("after.measure.example.org", dnswire.TypeA)
			if err != nil {
				t.Fatalf("query after the failed one: %v", err)
			}
			if a, ok := res.FirstA(); !ok || a != answerIP {
				t.Errorf("answer = %v", res.Msg.Answers)
			}
		})
	}
}

func TestQuad9MisconfigurationTimeouts(t *testing.T) {
	f := newFixture(t)
	backendIP := netip.MustParseAddr("192.0.2.9")

	// Backend whose processing time alternates fast/slow around the 2 s
	// front-end timeout.
	slow := false
	f.world.RegisterDatagram(backendIP, 53, func(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
		resp, proc, err := dnsserver.DatagramHandler(f.zone)(from, req)
		if slow {
			proc += 3 * time.Second
		}
		slow = !slow
		return resp, proc, err
	})
	f.serve(t, &Server{Handler: &UDPBackendForwarder{
		World:   f.world,
		From:    dohIP,
		Backend: backendIP,
		Timeout: 2 * time.Second,
	}})

	c := f.client()
	conn, err := f.dial(t, c, f.tmpl)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var servfails, successes int
	for i := 0; i < 10; i++ {
		res, err := conn.Query("q9.measure.example.org", dnswire.TypeA)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rcode() == dnswire.RcodeServFail {
			servfails++
		} else {
			successes++
		}
	}
	if servfails == 0 || successes == 0 {
		t.Errorf("servfails=%d successes=%d, want both > 0 (Finding 2.4)", servfails, successes)
	}
}

func TestMethodString(t *testing.T) {
	if GET.String() != "GET" || POST.String() != "POST" {
		t.Error("Method.String mismatch")
	}
}

func TestGETURLEncodesBase64URL(t *testing.T) {
	raw := string(appendDNSPath(nil, DefaultPath, []byte{0xfb, 0xff, 0xfe}))
	q, ok := strings.CutPrefix(raw, DefaultPath+"?dns=")
	if !ok || q == "" {
		t.Fatalf("rendered target %q missing dns query", raw)
	}
	if strings.ContainsAny(q, "+/=") {
		t.Errorf("dns param %q not base64url-unpadded", q)
	}
}
