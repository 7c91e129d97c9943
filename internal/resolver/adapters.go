package resolver

import (
	"context"
	"crypto/x509"
	"time"

	"dnsencryption.info/doe/internal/dnsclient"
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
