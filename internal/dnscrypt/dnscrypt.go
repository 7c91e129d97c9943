package dnscrypt

import (
	"bytes"
	"context"
	"crypto/ed25519"
	"crypto/rand"
	"encoding/binary"
	"errors"
	"fmt"
	"net/netip"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnsclient"
	"dnsencryption.info/doe/internal/dnsserver"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Protocol constants (DNSCrypt v2 specification).
var (
	certMagic     = [4]byte{'D', 'N', 'S', 'C'}
	resolverMagic = [8]byte{'r', '6', 'f', 'n', 'v', 'W', 'j', '8'}
)

// Port is the DNSCrypt port (shared with HTTPS traffic, like DoH).
const Port = 443

// esVersionXSalsa20 identifies the X25519-XSalsa20Poly1305 construction.
const esVersionXSalsa20 = 0x0001

// Errors.
var (
	ErrBadCert     = errors.New("dnscrypt: invalid resolver certificate")
	ErrCertExpired = errors.New("dnscrypt: resolver certificate outside validity window")
	ErrNoCert      = errors.New("dnscrypt: no resolver certificate fetched")
	ErrShortQuery  = errors.New("dnscrypt: malformed encrypted query")
)

// Cert is a parsed resolver certificate.
type Cert struct {
	ESVersion   uint16
	ResolverPK  [32]byte
	ClientMagic [8]byte
	Serial      uint32
	NotBefore   time.Time
	NotAfter    time.Time
}

// marshalSignedContent serializes the to-be-signed portion.
func (c *Cert) marshalSignedContent() []byte {
	out := make([]byte, 0, 32+8+12)
	out = append(out, c.ResolverPK[:]...)
	out = append(out, c.ClientMagic[:]...)
	out = binary.BigEndian.AppendUint32(out, c.Serial)
	out = binary.BigEndian.AppendUint32(out, uint32(c.NotBefore.Unix()))
	out = binary.BigEndian.AppendUint32(out, uint32(c.NotAfter.Unix()))
	return out
}

// Marshal produces the wire certificate: magic, es-version, minor,
// signature, signed content.
func (c *Cert) Marshal(providerKey ed25519.PrivateKey) []byte {
	content := c.marshalSignedContent()
	sig := ed25519.Sign(providerKey, content)
	out := make([]byte, 0, 4+2+2+64+len(content))
	out = append(out, certMagic[:]...)
	out = binary.BigEndian.AppendUint16(out, c.ESVersion)
	out = binary.BigEndian.AppendUint16(out, 0) // protocol minor version
	out = append(out, sig...)
	out = append(out, content...)
	return out
}

// ParseCert verifies a wire certificate against the provider's Ed25519
// public key and the study's reference time. The es-version lies outside
// the signed content, so anyone on the path can relabel it; the client
// seals only X25519-XSalsa20Poly1305, and every other es-version is
// rejected rather than trusted.
func ParseCert(raw []byte, providerPK ed25519.PublicKey, now time.Time) (*Cert, error) {
	if len(raw) < 4+2+2+64+52 || !bytes.Equal(raw[:4], certMagic[:]) {
		return nil, ErrBadCert
	}
	es := binary.BigEndian.Uint16(raw[4:])
	if es != esVersionXSalsa20 {
		return nil, fmt.Errorf("%w: unsupported es-version %d", ErrBadCert, es)
	}
	sig := raw[8:72]
	content := raw[72:]
	if !ed25519.Verify(providerPK, content, sig) {
		return nil, fmt.Errorf("%w: bad signature", ErrBadCert)
	}
	var c Cert
	c.ESVersion = es
	copy(c.ResolverPK[:], content[:32])
	copy(c.ClientMagic[:], content[32:40])
	c.Serial = binary.BigEndian.Uint32(content[40:])
	c.NotBefore = time.Unix(int64(binary.BigEndian.Uint32(content[44:])), 0).UTC()
	c.NotAfter = time.Unix(int64(binary.BigEndian.Uint32(content[48:])), 0).UTC()
	if now.Before(c.NotBefore) || now.After(c.NotAfter) {
		return nil, ErrCertExpired
	}
	return &c, nil
}

// appendPad applies ISO/IEC 7816-4 padding to a multiple of 64 bytes
// (DNSCrypt's traffic-analysis mitigation: queries share a small set of
// sizes). Padding happens in place: the returned slice extends msg.
func appendPad(msg []byte) []byte {
	msg = append(msg, 0x80)
	for len(msg)%64 != 0 {
		msg = append(msg, 0)
	}
	return msg
}

// unpad reverses pad.
func unpad(msg []byte) ([]byte, error) {
	for i := len(msg) - 1; i >= 0; i-- {
		switch msg[i] {
		case 0:
			continue
		case 0x80:
			return msg[:i], nil
		default:
			return nil, errors.New("dnscrypt: bad padding")
		}
	}
	return nil, errors.New("dnscrypt: empty padding")
}

// Server is a DNSCrypt resolver front-end.
type Server struct {
	ProviderName string
	Handler      dnsserver.Handler
	Cert         Cert

	resolverKP  *KeyPair
	providerKey ed25519.PrivateKey
	certWire    []byte
}

// NewServer creates a server with fresh resolver and provider keys. The
// returned Ed25519 public key is what clients pin (as in DNSCrypt stamps).
func NewServer(providerName string, handler dnsserver.Handler) (*Server, ed25519.PublicKey, error) {
	providerPK, providerSK, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, nil, err
	}
	kp, err := NewKeyPair()
	if err != nil {
		return nil, nil, err
	}
	s := &Server{
		ProviderName: dnswire.CanonicalName(providerName),
		Handler:      handler,
		resolverKP:   kp,
		providerKey:  providerSK,
	}
	s.Cert = Cert{
		ESVersion:  esVersionXSalsa20,
		ResolverPK: kp.Public,
		Serial:     1,
		NotBefore:  certs.RefTime.AddDate(0, -6, 0),
		NotAfter:   certs.RefTime.AddDate(0, 6, 0),
	}
	if _, err := rand.Read(s.Cert.ClientMagic[:]); err != nil {
		return nil, nil, err
	}
	s.certWire = s.Cert.Marshal(providerSK)
	return s, providerPK, nil
}

// certQueryName is where clients fetch certificates:
// 2.dnscrypt-cert.<provider>.
func (s *Server) certQueryName() string {
	return dnswire.CanonicalName("2.dnscrypt-cert." + s.ProviderName)
}

// DatagramHandler serves both the clear-text certificate TXT query and
// encrypted queries on one port.
func (s *Server) DatagramHandler() netsim.DatagramHandler {
	return func(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
		if len(req) >= 8 && bytes.Equal(req[:8], s.Cert.ClientMagic[:]) {
			return s.serveEncrypted(from, req)
		}
		return s.serveCertQuery(from, req)
	}
}

func (s *Server) serveCertQuery(_ netip.Addr, req []byte) ([]byte, time.Duration, error) {
	m, err := dnswire.Unpack(req)
	if err != nil {
		return nil, 0, err
	}
	resp := m.Reply()
	q := m.Question1()
	if q.Type == dnswire.TypeTXT && dnswire.CanonicalName(q.Name) == s.certQueryName() {
		// Real DNSCrypt splits the cert across 255-byte strings.
		var texts []string
		for rest := s.certWire; len(rest) > 0; {
			n := 255
			if len(rest) < n {
				n = len(rest)
			}
			texts = append(texts, string(rest[:n]))
			rest = rest[n:]
		}
		resp.AddAnswer(q.Name, 3600, dnswire.TXT{Texts: texts})
	} else {
		resp.Rcode = dnswire.RcodeRefused
	}
	packed, err := resp.Pack()
	return packed, time.Millisecond, err
}

func (s *Server) serveEncrypted(from netip.Addr, req []byte) ([]byte, time.Duration, error) {
	// Layout: client-magic(8) client-pk(32) client-nonce(12) box.
	if len(req) < 8+32+12+16 {
		return nil, 0, ErrShortQuery
	}
	var clientPK [32]byte
	copy(clientPK[:], req[8:40])
	var nonce [24]byte
	copy(nonce[:12], req[40:52])
	shared, err := s.resolverKP.SharedKey(&clientPK)
	if err != nil {
		return nil, 0, err
	}
	padded, err := SecretboxOpen(req[52:], &nonce, shared)
	if err != nil {
		return nil, 0, err
	}
	plain, err := unpad(padded)
	if err != nil {
		return nil, 0, err
	}
	query, err := dnswire.Unpack(plain)
	if err != nil {
		return nil, 0, err
	}
	resp, proc := s.Handler.ServeDNS(from, query)
	packedResp, err := resp.Pack()
	if err != nil {
		return nil, 0, err
	}

	// Response nonce: client half || fresh resolver half.
	var respNonce [24]byte
	copy(respNonce[:12], nonce[:12])
	if _, err := rand.Read(respNonce[12:]); err != nil {
		return nil, 0, err
	}
	sealed := SecretboxSeal(appendPad(packedResp), &respNonce, shared)
	out := make([]byte, 0, 8+24+len(sealed))
	out = append(out, resolverMagic[:]...)
	out = append(out, respNonce[:]...)
	out = append(out, sealed...)
	return out, proc + time.Millisecond, nil
}

// Client issues DNSCrypt queries.
type Client struct {
	World *netsim.World
	From  netip.Addr
	// ProviderName and ProviderPK pin the resolver's identity (the
	// contents of a DNSCrypt stamp).
	ProviderName string
	ProviderPK   ed25519.PublicKey
	// Now anchors certificate validation (defaults to certs.RefTime).
	Now time.Time

	kp   *KeyPair
	cert *Cert
	// shared caches the NaCl box precomputation with the certificate's
	// resolver key; the X25519 exchange runs once per certificate, not
	// once per query.
	shared *[32]byte
	// ids generates transaction IDs without the process-wide lock.
	ids dnswire.IDGen
}

// NewClient creates a client with a fresh X25519 key pair.
func NewClient(w *netsim.World, from netip.Addr, providerName string, providerPK ed25519.PublicKey) (*Client, error) {
	kp, err := NewKeyPair()
	if err != nil {
		return nil, err
	}
	return &Client{
		World:        w,
		From:         from,
		ProviderName: dnswire.CanonicalName(providerName),
		ProviderPK:   providerPK,
		Now:          certs.RefTime,
		kp:           kp,
		ids:          dnswire.NewIDGen(),
	}, nil
}

// FetchCertContext retrieves and verifies the resolver certificate via the
// clear-text TXT bootstrap query, checking ctx before the exchange.
func (c *Client) FetchCertContext(ctx context.Context, resolver netip.Addr) error {
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("dnscrypt: fetch cert: %w", err)
	}
	q := dnswire.NewQuery(dnswire.NewID(), "2.dnscrypt-cert."+c.ProviderName, dnswire.TypeTXT)
	packed, err := q.Pack()
	if err != nil {
		return err
	}
	raw, _, err := c.World.Exchange(c.From, resolver, Port, packed)
	if err != nil {
		return err
	}
	m, err := dnswire.Unpack(raw)
	if err != nil {
		return err
	}
	for _, rr := range m.Answers {
		txt, ok := rr.Data.(dnswire.TXT)
		if !ok {
			continue
		}
		var wire []byte
		for _, s := range txt.Texts {
			wire = append(wire, s...)
		}
		cert, err := ParseCert(wire, c.ProviderPK, c.Now)
		if err != nil {
			return err
		}
		shared, err := c.kp.SharedKey(&cert.ResolverPK)
		if err != nil {
			return err
		}
		c.cert = cert
		c.shared = shared
		return nil
	}
	return ErrNoCert
}

// QueryContext performs one encrypted lookup, checking ctx before the
// exchange. FetchCertContext must have succeeded.
//
//doelint:hotpath
func (c *Client) QueryContext(ctx context.Context, resolver netip.Addr, name string, qtype dnswire.Type) (*dnsclient.Result, error) {
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("dnscrypt: query: %w", err)
	}
	if c.cert == nil {
		return nil, ErrNoCert
	}
	shared := c.shared
	if shared == nil {
		// Certificate installed without FetchCertContext (tests); derive lazily.
		var err error
		if shared, err = c.kp.SharedKey(&c.cert.ResolverPK); err != nil {
			return nil, err
		}
		c.shared = shared
	}
	q := dnswire.NewQuery(c.ids.Next(), name, qtype)
	pb := bufpool.Get(512)
	defer bufpool.Put(pb)
	packed, err := q.AppendPack((*pb)[:0])
	if err != nil {
		return nil, err
	}
	var nonce [24]byte
	if _, err := rand.Read(nonce[:12]); err != nil {
		return nil, err
	}
	*pb = appendPad(packed)

	// The datagram escapes into the simulated network (interceptors may
	// retain it), so it is deliberately not pooled; the box is sealed
	// directly into it.
	msg := make([]byte, 0, 8+32+12+16+len(*pb)) //doelint:allow hotalloc -- datagram escapes to World.Exchange and cannot be recycled
	msg = append(msg, c.cert.ClientMagic[:]...)
	msg = append(msg, c.kp.Public[:]...)
	msg = append(msg, nonce[:12]...)
	msg = SecretboxSealAppend(msg, *pb, &nonce, shared)

	raw, elapsed, err := c.World.Exchange(c.From, resolver, Port, msg)
	if err != nil {
		return nil, err
	}
	if len(raw) < 8+24+16 || !bytes.Equal(raw[:8], resolverMagic[:]) {
		return nil, errors.New("dnscrypt: malformed response")
	}
	var respNonce [24]byte
	copy(respNonce[:], raw[8:32])
	if !bytes.Equal(respNonce[:12], nonce[:12]) {
		return nil, errors.New("dnscrypt: response nonce mismatch")
	}
	// The query bytes in pb are dead once sealed into the datagram; decrypt
	// the response into the same pooled buffer. Unpack copies every field
	// out, so the buffer is free to return to the pool on exit.
	padded, err := SecretboxOpenAppend((*pb)[:0], raw[32:], &respNonce, shared)
	if err != nil {
		return nil, err
	}
	*pb = padded
	plain, err := unpad(padded)
	if err != nil {
		return nil, err
	}
	m, err := dnswire.Unpack(plain)
	if err != nil {
		return nil, err
	}
	if m.ID != q.ID {
		return nil, dnsclient.ErrIDMismatch
	}
	return &dnsclient.Result{Msg: m, Latency: elapsed}, nil
}
