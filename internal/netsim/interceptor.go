package netsim

import (
	"crypto/tls"
	"crypto/x509"
	"io"
	"net/netip"
	"sync"

	"dnsencryption.info/doe/internal/certs"
)

// InterceptedSession records one TLS session proxied by an interceptor.
// Finding 2.3 derives Table 6 from exactly this information: which client,
// which resolver, which port, and what the re-signing CA's name was.
type InterceptedSession struct {
	Client   netip.Addr
	Target   netip.Addr
	Port     uint16
	IssuerCN string
	// RelayedToOrigin reports whether the proxied session reached the
	// genuine resolver (the paper observes interceptors forwarding
	// queries to the original resolvers).
	RelayedToOrigin bool
}

// TLSInterceptor is a middlebox that terminates TLS toward the clients on
// the networks World.AddPolicy places it on, with certificates re-signed by
// its own (untrusted) CA, and proxies the plaintext to the genuine
// destination over a fresh TLS session. This is the behaviour the paper
// attributes to DPI devices such as "SonicWall Firewall DPI-SSL" in Table 6.
type TLSInterceptor struct {
	// CA re-signs origin certificates; it must not be in the root store.
	CA *certs.CA
	// Ports lists intercepted ports (853 and/or 443). Table 6 notes three
	// devices that "only listen on port 443".
	Ports map[uint16]bool

	mu       sync.Mutex
	forged   map[netip.Addr]*certs.Leaf // per-origin forged cert cache
	sessions []InterceptedSession
}

// NewTLSInterceptor builds an interceptor of the given ports.
func NewTLSInterceptor(ca *certs.CA, ports ...uint16) *TLSInterceptor {
	pm := make(map[uint16]bool, len(ports))
	for _, p := range ports {
		pm[p] = true
	}
	return &TLSInterceptor{
		CA:     ca,
		Ports:  pm,
		forged: make(map[netip.Addr]*certs.Leaf),
	}
}

// Sessions returns a copy of the recorded sessions.
func (t *TLSInterceptor) Sessions() []InterceptedSession {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]InterceptedSession(nil), t.sessions...)
}

// Decide implements DialPolicy.
func (t *TLSInterceptor) Decide(w *World, from, _ netip.Addr, port uint16, proto Proto) Verdict {
	if proto != Stream || !t.Ports[port] {
		return Verdict{Action: ActNext}
	}
	return Verdict{Action: ActRedirect, Handler: func(conn *Conn, dst Addr) {
		t.proxy(w, conn, from, dst)
	}}
}

// proxy MITMs one connection: TLS toward the client with a forged
// certificate, TLS toward the origin, plaintext relayed in both directions.
func (t *TLSInterceptor) proxy(w *World, clientConn *Conn, client netip.Addr, dst Addr) {
	defer clientConn.Close()

	// Reach the genuine origin first (bypassing ourselves: the redirect
	// already consumed this policy's verdict for the client; our own dial
	// originates from the destination-side path, so use the client
	// address to preserve any further-path policies).
	origin, err := w.dialDirect(client, dst.IP, dst.Port)
	if err != nil {
		return
	}
	defer origin.Close()

	originTLS := tls.Client(origin, &tls.Config{InsecureSkipVerify: true}) //nolint:gosec // interceptors do not validate
	if err := originTLS.Handshake(); err != nil {
		return
	}
	leaf, err := t.forgedFor(dst.IP, originTLS.ConnectionState().PeerCertificates)
	if err != nil {
		return
	}
	cert := leaf.TLSCertificate()
	clientTLS := tls.Server(clientConn, &tls.Config{Certificates: []tls.Certificate{cert}})
	if err := clientTLS.Handshake(); err != nil {
		// Strict clients (DoH) abort on the forged certificate.
		t.record(client, dst, false)
		return
	}
	t.record(client, dst, true)

	done := make(chan struct{}, 2)
	go func() { io.Copy(originTLS, clientTLS); done <- struct{}{} }() //nolint:errcheck
	go func() { io.Copy(clientTLS, originTLS); done <- struct{}{} }() //nolint:errcheck
	<-done
}

func (t *TLSInterceptor) record(client netip.Addr, dst Addr, relayed bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.sessions = append(t.sessions, InterceptedSession{
		Client:          client,
		Target:          dst.IP,
		Port:            dst.Port,
		IssuerCN:        t.CA.Cert.Subject.CommonName,
		RelayedToOrigin: relayed,
	})
}

func (t *TLSInterceptor) forgedFor(origin netip.Addr, peerCerts []*x509.Certificate) (*certs.Leaf, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if leaf, ok := t.forged[origin]; ok {
		return leaf, nil
	}
	var leaf *certs.Leaf
	var err error
	if len(peerCerts) > 0 {
		leaf, err = t.CA.Resign(peerCerts[0])
	} else {
		leaf, err = t.CA.Issue(certs.LeafOptions{CommonName: origin.String()})
	}
	if err != nil {
		return nil, err
	}
	t.forged[origin] = leaf
	return leaf, nil
}

// dialDirect connects bypassing all policies — used by middleboxes sitting
// past the policy evaluation point.
func (w *World) dialDirect(from, to netip.Addr, port uint16) (*Conn, error) {
	dst := Addr{IP: to, Port: port}
	handler := w.stream(dst)
	if handler == nil {
		return nil, ErrRefused
	}
	return w.connect(from, dst, 0, handler), nil
}
