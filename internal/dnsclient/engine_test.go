package dnsclient_test

// The Mux engine contract, run over both of its framings: RFC 7766 length
// prefixes (clear-text TCP, and DoT's TLS stream) and HTTP/2 streams (DoH).
// Each test is a table over engines; the server end of every session is a
// script, so a test can answer, withhold, reset or hang up on any query.

import (
	"bufio"
	"context"
	"crypto/tls"
	"encoding/base64"
	"errors"
	"fmt"
	"io"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	engineClientIP = netip.MustParseAddr("10.1.0.2")
	engineServerIP = netip.MustParseAddr("192.0.2.53")
	engineAnswerIP = netip.MustParseAddr("203.0.113.7")
)

const engineHost = "dns.engine.example"

// engine is one framing of dnsclient.Mux: how the scripted server speaks
// it, and how a client dials a multiplexed session over it.
type engine struct {
	name string
	port uint16
	tls  bool // the server terminates TLS
	h2   bool // HTTP/2 framing; otherwise RFC 7766 length prefixes
	dial func(f *fixture, limit int) (*session, error)
}

// session is a multiplexed client session, whichever framing carries it.
type session struct {
	query func(ctx context.Context, name string) (*dnsclient.Result, error)
	batch func(ctx context.Context, names []string) ([]dnsclient.Result, error)
	close func() error
}

var engines = []engine{
	{name: "tcp", port: 53, dial: func(f *fixture, limit int) (*session, error) {
		raw, err := f.stream(53)
		if err != nil {
			return nil, err
		}
		conn := dnsclient.TCPFromConn(raw)
		conn.Pipeline(limit)
		return streamSession(conn), nil
	}},
	{name: "dot", port: dot.Port, tls: true, dial: func(f *fixture, limit int) (*session, error) {
		raw, err := f.stream(dot.Port)
		if err != nil {
			return nil, err
		}
		c := dot.Client{Roots: certs.Pool(f.ca), Profile: dot.Strict}
		conn, err := c.DialConnContext(context.Background(), raw)
		if err != nil {
			return nil, err
		}
		conn.Pipeline(limit)
		return streamSession(conn), nil
	}},
	{name: "doh", port: doh.Port, tls: true, h2: true, dial: func(f *fixture, limit int) (*session, error) {
		raw, err := f.stream(doh.Port)
		if err != nil {
			return nil, err
		}
		c := doh.Client{Roots: certs.Pool(f.ca), MaxInFlight: limit}
		conn, err := c.DialConnContext(context.Background(), doh.Template{Host: engineHost, Path: doh.DefaultPath}, raw)
		if err != nil {
			return nil, err
		}
		return streamSession(conn), nil
	}},
}

// streamConn is what every framing's pipelined session provides.
type streamConn interface {
	QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error)
	Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error)
	Close() error
}

func streamSession(conn streamConn) *session {
	return &session{
		query: func(ctx context.Context, name string) (*dnsclient.Result, error) {
			return conn.QueryContext(ctx, name, dnswire.TypeA)
		},
		batch: func(ctx context.Context, names []string) ([]dnsclient.Result, error) {
			return conn.Batch(ctx, names, dnswire.TypeA, nil)
		},
		close: conn.Close,
	}
}

type fixture struct {
	w    *netsim.World
	ca   *certs.CA
	cert tls.Certificate
}

// stream opens the stream a session's handshake runs over.
func (f *fixture) stream(port uint16) (*netsim.Conn, error) {
	return f.w.Dial(engineClientIP, engineServerIP, port)
}

func newFixture(t *testing.T) *fixture {
	t.Helper()
	w := netsim.NewWorld(3)
	w.Geo.Register(netip.MustParsePrefix("10.1.0.0/16"), geo.Location{Country: "US"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "DE"})
	ca, err := certs.NewCA("Engine Root", true)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := ca.Issue(certs.LeafOptions{
		CommonName: engineHost,
		DNSNames:   []string{engineHost},
		IPs:        []netip.Addr{engineServerIP},
	})
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{w: w, ca: ca, cert: leaf.TLSCertificate()}
}

// serve registers e's server; every session it accepts runs script, and
// returning from script hangs up.
func (f *fixture) serve(e engine, script func(p *peer)) {
	f.w.RegisterStream(engineServerIP, e.port, func(conn *netsim.Conn) {
		defer conn.Close()
		var rw io.ReadWriter = conn
		if e.tls {
			cfg := &tls.Config{Certificates: []tls.Certificate{f.cert}}
			if e.h2 {
				cfg.NextProtos = []string{"h2"}
			}
			tc := tls.Server(conn, cfg)
			defer tc.Close()
			if tc.Handshake() != nil {
				return
			}
			rw = tc
		}
		p := &peer{w: rw, br: bufio.NewReader(rw), h2: e.h2}
		if e.h2 && p.h2Setup() != nil {
			return
		}
		script(p)
	})
}

func (f *fixture) dial(t *testing.T, e engine, limit int) *session {
	t.Helper()
	s, err := e.dial(f, limit)
	if err != nil {
		t.Fatalf("%s dial: %v", e.name, err)
	}
	return s
}

// peer is the server end of one session, as a test scripts it.
type peer struct {
	w  io.Writer
	br *bufio.Reader
	h2 bool
}

// query is one query the peer read: its tag (DNS ID or h2 stream ID) and
// message.
type query struct {
	tag uint32
	msg *dnswire.Message
}

func (q query) name() string { return q.msg.Question1().Name }

// h2Setup is the server half of the package's preface and one-SETTINGS
// exchange.
func (p *peer) h2Setup() error {
	preface := make([]byte, len(dnswire.H2ClientPreface))
	if _, err := io.ReadFull(p.br, preface); err != nil {
		return err
	}
	if _, _, err := dnswire.ReadH2FrameAppend(p.br, nil); err != nil {
		return err
	}
	settings, err := dnswire.AppendH2Frame(nil, dnswire.H2FrameSettings, 0, 0, nil)
	if err != nil {
		return err
	}
	_, err = p.w.Write(settings)
	return err
}

// next reads one whole query.
func (p *peer) next() (query, error) {
	if !p.h2 {
		raw, err := dnswire.ReadTCP(p.br)
		if err != nil {
			return query{}, err
		}
		m, err := dnswire.Unpack(raw)
		if err != nil {
			return query{}, err
		}
		return query{tag: uint32(m.ID), msg: m}, nil
	}
	for {
		f, block, err := dnswire.ReadH2FrameAppend(p.br, nil)
		if err != nil {
			return query{}, err
		}
		if f.Type != dnswire.H2FrameHeaders || !f.EndStream() {
			continue
		}
		for len(block) > 0 {
			name, value, rest, err := dnswire.ReadHpackLiteral(block)
			if err != nil {
				return query{}, err
			}
			block = rest
			if string(name) != ":path" {
				continue
			}
			_, param, ok := strings.Cut(string(value), "?dns=")
			if !ok {
				return query{}, fmt.Errorf("GET path %q has no dns parameter", value)
			}
			wire, err := base64.RawURLEncoding.DecodeString(param)
			if err != nil {
				return query{}, err
			}
			m, err := dnswire.Unpack(wire)
			if err != nil {
				return query{}, err
			}
			return query{tag: f.StreamID, msg: m}, nil
		}
		return query{}, errors.New("HEADERS without :path")
	}
}

// answer replies to q with engineAnswerIP.
func (p *peer) answer(q query) error {
	resp := q.msg.Reply()
	resp.AddAnswer(q.name(), 60, dnswire.A{Addr: engineAnswerIP})
	packed, err := resp.Pack()
	if err != nil {
		return err
	}
	var out []byte
	if p.h2 {
		out, err = dnswire.AppendH2Frame(nil, dnswire.H2FrameHeaders, dnswire.H2FlagEndHeaders, q.tag, dnswire.AppendHpackLiteral(nil, ":status", "200"))
		if err == nil {
			out, err = dnswire.AppendH2Frame(out, dnswire.H2FrameData, dnswire.H2FlagEndStream, q.tag, packed)
		}
	} else {
		out, err = dnswire.AppendTCP(nil, packed)
	}
	if err != nil {
		return err
	}
	_, err = p.w.Write(out)
	return err
}

// frame writes one raw h2 frame.
func (p *peer) frame(t dnswire.H2FrameType, sid uint32, payload []byte) error {
	out, err := dnswire.AppendH2Frame(nil, t, 0, sid, payload)
	if err != nil {
		return err
	}
	_, err = p.w.Write(out)
	return err
}

// answerAll answers every query until the client hangs up.
func answerAll(p *peer) {
	for {
		q, err := p.next()
		if err != nil || p.answer(q) != nil {
			return
		}
	}
}

func checkAnswer(res *dnsclient.Result, err error) error {
	if err != nil {
		return err
	}
	if a, ok := res.FirstA(); !ok || a != engineAnswerIP {
		return fmt.Errorf("answer %v, want %v", res.Msg.Answers, engineAnswerIP)
	}
	return nil
}

// A cancelled Exchange returns context.Canceled and gives back its
// in-flight slot: at limit 1, the next Exchange on the session only gets
// written, and answered, if the slot came back.
func TestMuxExchangeCancellation(t *testing.T) {
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			f := newFixture(t)
			withheld := make(chan struct{})
			f.serve(e, func(p *peer) {
				// Withhold the reply to the first query; answer the rest.
				if _, err := p.next(); err != nil {
					return
				}
				close(withheld)
				answerAll(p)
			})
			s := f.dial(t, e, 1)
			defer s.close()

			ctx, cancel := context.WithCancel(context.Background())
			done := make(chan error, 1)
			go func() {
				_, err := s.query(ctx, "q0.example.com")
				done <- err
			}()
			select {
			case <-withheld:
			case <-time.After(2 * time.Second):
				t.Fatal("the first query never reached the server")
			}
			cancel()
			select {
			case err := <-done:
				if !errors.Is(err, context.Canceled) {
					t.Errorf("err = %v, want context.Canceled", err)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("cancelled exchange did not return")
			}
			ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel2()
			if err := checkAnswer(s.query(ctx2, "q1.example.com")); err != nil {
				t.Errorf("exchange after a cancellation: %v", err)
			}
		})
	}
}

// When the stream dies mid-flight every in-flight query fails, and so does
// every later one.
func TestMuxFailsAllInFlightOnStreamDeath(t *testing.T) {
	const n = 4
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			f := newFixture(t)
			// The server swallows n queries and hangs up without answering.
			f.serve(e, func(p *peer) {
				for i := 0; i < n; i++ {
					if _, err := p.next(); err != nil {
						return
					}
				}
			})
			s := f.dial(t, e, n)
			defer s.close()

			var wg sync.WaitGroup
			errs := make([]error, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					_, errs[i] = s.query(context.Background(), fmt.Sprintf("q%d.example.com", i))
				}(i)
			}
			wg.Wait()
			for i, err := range errs {
				if err == nil {
					t.Errorf("query %d succeeded against a dead stream", i)
				}
			}
			if _, err := s.query(context.Background(), "late.example.com"); err == nil {
				t.Error("query on dead session succeeded")
			}
		})
	}
}

// After Close, Exchange and Batch fail with ErrClosed without blocking:
// each gives back the in-flight slots it took, so more calls than the
// limit still return.
func TestMuxClosedSessionError(t *testing.T) {
	const limit = 4
	for _, e := range engines {
		t.Run(e.name, func(t *testing.T) {
			f := newFixture(t)
			f.serve(e, answerAll)
			s := f.dial(t, e, limit)
			if err := checkAnswer(s.query(context.Background(), "before.example.com")); err != nil {
				t.Fatalf("query before Close: %v", err)
			}
			s.close()
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			for i := 0; i <= limit; i++ {
				if _, err := s.query(ctx, "x.example.com"); !errors.Is(err, dnsclient.ErrClosed) {
					t.Fatalf("Exchange %d after Close: err = %v, want ErrClosed", i, err)
				}
				if _, err := s.batch(ctx, []string{"a.example.com", "b.example.com"}); !errors.Is(err, dnsclient.ErrClosed) {
					t.Fatalf("Batch %d after Close: err = %v, want ErrClosed", i, err)
				}
			}
		})
	}
}

func dohEngine(t *testing.T) engine {
	t.Helper()
	for _, e := range engines {
		if e.h2 {
			return e
		}
	}
	t.Fatal("no h2 engine")
	return engine{}
}

// RST_STREAM fails its own stream only: the query beside it is answered and
// the session carries on.
func TestMuxH2ResetFailsOnlyItsStream(t *testing.T) {
	e := dohEngine(t)
	f := newFixture(t)
	f.serve(e, func(p *peer) {
		// Read both queries, then reset one and answer the other.
		var qs [2]query
		for i := range qs {
			q, err := p.next()
			if err != nil {
				return
			}
			qs[i] = q
		}
		for _, q := range qs {
			var err error
			if strings.HasPrefix(q.name(), "reset.") {
				err = p.frame(dnswire.H2FrameRSTStream, q.tag, []byte{0, 0, 0, 8}) // CANCEL
			} else {
				err = p.answer(q)
			}
			if err != nil {
				return
			}
		}
		answerAll(p)
	})
	s := f.dial(t, e, 4)
	defer s.close()

	var wg sync.WaitGroup
	var resetErr, okErr error
	wg.Add(2)
	go func() {
		defer wg.Done()
		_, resetErr = s.query(context.Background(), "reset.example.com")
	}()
	go func() {
		defer wg.Done()
		okErr = checkAnswer(s.query(context.Background(), "ok.example.com"))
	}()
	wg.Wait()
	if resetErr == nil || !strings.Contains(resetErr.Error(), "reset by server") {
		t.Errorf("reset stream: err = %v, want a reset error", resetErr)
	}
	if okErr != nil {
		t.Errorf("stream beside the reset one: %v", okErr)
	}
	if err := checkAnswer(s.query(context.Background(), "after.example.com")); err != nil {
		t.Errorf("query after the reset: %v", err)
	}
}

// GOAWAY fails every stream in flight with the same error, and the session
// is dead afterwards.
func TestMuxH2GoAwayFailsEveryStream(t *testing.T) {
	const n = 4
	e := dohEngine(t)
	f := newFixture(t)
	f.serve(e, func(p *peer) {
		for i := 0; i < n; i++ {
			if _, err := p.next(); err != nil {
				return
			}
		}
		if p.frame(dnswire.H2FrameGoAway, 0, make([]byte, 8)) != nil {
			return
		}
		// Keep the stream open: the GOAWAY alone must end the session.
		for {
			if _, err := p.next(); err != nil {
				return
			}
		}
	})
	s := f.dial(t, e, n)
	defer s.close()

	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("g%d.example.com", i)
	}
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := range names {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = s.query(context.Background(), names[i])
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil || !strings.Contains(err.Error(), "GOAWAY") {
			t.Errorf("stream %d: err = %v, want the GOAWAY", i, err)
		}
	}
	if _, err := s.query(context.Background(), "late.example.com"); err == nil || !strings.Contains(err.Error(), "GOAWAY") {
		t.Errorf("query after GOAWAY: err = %v, want the GOAWAY", err)
	}
}
