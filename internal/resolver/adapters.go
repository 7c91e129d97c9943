package resolver

import (
	"context"
	"crypto/x509"
	"net/netip"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnscrypt"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
)

// udpExchanger is the connectionless clear-text transport.
type udpExchanger struct {
	client *dnsclient.Client
	server netip.Addr
}

func (u udpExchanger) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := u.client.QueryUDPContext(ctx, u.server, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

// tcpSession adapts an established DNS-over-TCP connection to the unified
// API; mux is its pipeline when dialed with WithMaxInFlight.
type tcpSession struct {
	conn *dnsclient.TCPConn
	mux  *dnsclient.Mux
}

func (s tcpSession) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := s.conn.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

func (s tcpSession) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	return muxBatch(ctx, s.mux, names, qtype, out)
}

func (s tcpSession) Close() error                { return s.conn.Close() }
func (s tcpSession) SetupLatency() time.Duration { return s.conn.SetupLatency() }
func (s tcpSession) Elapsed() time.Duration      { return s.conn.Elapsed() }

// muxBatch is Batch for the pipelined stream sessions (TCP, DoT).
func muxBatch(ctx context.Context, m *dnsclient.Mux, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	if m == nil {
		return out, errSerialBatch
	}
	return m.Batch(ctx, names, qtype, out)
}

// dotSession adapts an established DoT session to the unified API; mux is
// its pipeline when dialed with WithMaxInFlight. PeerCertificates and
// VerifyError expose the handshake's evidence: under the Opportunistic
// profile a session proceeds past a chain that fails verification.
type dotSession struct {
	conn *dot.Conn
	mux  *dnsclient.Mux
}

func (s dotSession) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := s.conn.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

func (s dotSession) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	return muxBatch(ctx, s.mux, names, qtype, out)
}

func (s dotSession) Close() error                          { return s.conn.Close() }
func (s dotSession) SetupLatency() time.Duration           { return s.conn.SetupLatency() }
func (s dotSession) Elapsed() time.Duration                { return s.conn.Elapsed() }
func (s dotSession) PeerCertificates() []*x509.Certificate { return s.conn.PeerCertificates() }
func (s dotSession) VerifyError() error                    { return s.conn.VerifyError() }

// dohSession adapts an established DoH session to the unified API.
type dohSession struct{ conn *doh.Conn }

func (s dohSession) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := s.conn.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

func (s dohSession) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	return s.conn.BatchContext(ctx, names, qtype, out)
}

func (s dohSession) Close() error                { return s.conn.Close() }
func (s dohSession) SetupLatency() time.Duration { return s.conn.SetupLatency() }
func (s dohSession) Elapsed() time.Duration      { return s.conn.Elapsed() }

// doqSession adapts an established DoQ session to the unified API, exposing
// the handshake's evidence like dotSession (a 0-RTT session carries the
// outcome of the handshake that minted its ticket).
type doqSession struct{ conn *doq.Conn }

func (s doqSession) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := s.conn.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

func (s doqSession) Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error) {
	return s.conn.BatchContext(ctx, names, qtype, out)
}

func (s doqSession) Close() error                          { return s.conn.Close() }
func (s doqSession) SetupLatency() time.Duration           { return s.conn.SetupLatency() }
func (s doqSession) Elapsed() time.Duration                { return s.conn.Elapsed() }
func (s doqSession) PeerCertificates() []*x509.Certificate { return s.conn.PeerCertificates() }
func (s doqSession) VerifyError() error                    { return s.conn.VerifyError() }

// DNSCrypt adapts a dnscrypt client to the unified API. The client's
// certificate must already be fetched (FetchCertContext); exchanges on an
// uncertified client surface dnscrypt.ErrNoCert.
func DNSCrypt(client *dnscrypt.Client, server netip.Addr) *DNSCryptExchanger {
	return &DNSCryptExchanger{client: client, server: server}
}

// DNSCryptExchanger is the datagram DNSCrypt transport. Like Transport, it
// records the virtual latency of the most recent exchange — datagram
// transports have no session whose Elapsed could be read instead.
type DNSCryptExchanger struct {
	client *dnscrypt.Client
	server netip.Addr

	mu   sync.Mutex
	last time.Duration
}

// Exchange performs one encrypted lookup.
func (d *DNSCryptExchanger) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := d.client.QueryContext(ctx, d.server, name, qtype)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	d.last = res.Latency
	d.mu.Unlock()
	return res.Msg, nil
}

// LastLatency is the virtual time the most recent Exchange took.
func (d *DNSCryptExchanger) LastLatency() time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.last
}
