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
)

// session adapts any dialed stream or QUIC session — a dnsclient.TCPConn,
// *dot.Conn, *doh.Conn or *doq.Conn — to Session: each already has
// Batch, Close, SetupLatency and Elapsed, and Exchange forwards the
// message's question to its QueryContext.
type session struct{ conn }

// conn is what every dialed connection provides.
type conn interface {
	QueryContext(ctx context.Context, name string, qtype dnswire.Type) (*dnsclient.Result, error)
	Batch(ctx context.Context, names []string, qtype dnswire.Type, out []dnsclient.Result) ([]dnsclient.Result, error)
	Close() error
	SetupLatency() time.Duration
	Elapsed() time.Duration
}

func (s session) Exchange(ctx context.Context, msg *dnswire.Message) (*dnswire.Message, error) {
	name, qtype, err := Question(msg)
	if err != nil {
		return nil, err
	}
	res, err := s.QueryContext(ctx, name, qtype)
	if err != nil {
		return nil, err
	}
	return res.Msg, nil
}

// Verified is the handshake evidence of a session that authenticates under
// the Opportunistic profile (DoT, DoQ): it proceeds past a chain that fails
// verification, so the chain and the outcome are interception evidence. A
// 0-RTT DoQ session carries the outcome of the handshake that minted its
// ticket. Sessions dialed for those protocols implement it.
type Verified interface {
	PeerCertificates() []*x509.Certificate
	VerifyError() error
}

// verifiedSession is a session that also exposes its handshake evidence.
type verifiedSession struct {
	session
	Verified
}

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
