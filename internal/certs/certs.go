// Package certs is the X.509 toolkit for the study. It issues the
// certificate population the paper observes on DoT port 853 — valid chains,
// expired leaves, self-signed certificates, broken chains, and the FortiGate
// factory-default certificates that mark TLS-inspection middleboxes — and
// classifies presented chains the way §3.2 (Finding 1.2) does. Its
// TrustStore is the study's root store: every chain verification, in every
// transport and in Classify, goes through one, which validates each distinct
// chain once.
//
// Every key and signature the toolkit makes is Ed25519. The study observes
// whether a chain verifies, never which algorithm signed it, and an Ed25519
// signature is cheaper than an ECDSA P-256 one both to make and to check,
// once per handshake on each side.
package certs

import (
	"bytes"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/tls"
	"crypto/x509"
	"crypto/x509/pkix"
	"fmt"
	"math/big"
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"time"
)

// RefTime is the study's reference "now": the paper's last scan (May 1,
// 2019). All validity checks are made relative to this instant so results
// are reproducible regardless of wall-clock time.
var RefTime = time.Date(2019, time.May, 1, 0, 0, 0, 0, time.UTC)

var serialCounter atomic.Int64

func nextSerial() *big.Int {
	return big.NewInt(serialCounter.Add(1))
}

// CA is a certificate authority that can issue leaf certificates.
type CA struct {
	Cert *x509.Certificate
	Key  ed25519.PrivateKey
	// Trusted CAs appear in the study's root store.
	Trusted bool
}

// NewCA creates a self-signed CA. Trusted CAs model the Mozilla root
// program; untrusted ones model interception-device and private CAs.
func NewCA(commonName string, trusted bool) (*CA, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber:          nextSerial(),
		Subject:               pkix.Name{CommonName: commonName, Organization: []string{commonName}},
		NotBefore:             RefTime.AddDate(-5, 0, 0),
		NotAfter:              RefTime.AddDate(10, 0, 0),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign | x509.KeyUsageDigitalSignature,
		BasicConstraintsValid: true,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &CA{Cert: cert, Key: key, Trusted: trusted}, nil
}

// LeafOptions controls leaf issuance.
type LeafOptions struct {
	CommonName string
	DNSNames   []string
	IPs        []netip.Addr
	// NotBefore/NotAfter default to a validity window around RefTime.
	NotBefore, NotAfter time.Time
}

// Leaf bundles a leaf certificate with its private key and the chain that
// should be presented with it.
type Leaf struct {
	Cert  *x509.Certificate
	Key   ed25519.PrivateKey
	Chain []*x509.Certificate // presented chain: leaf first
}

// TLSCertificate converts the leaf into a tls.Certificate for servers.
func (l *Leaf) TLSCertificate() tls.Certificate {
	raw := make([][]byte, 0, len(l.Chain))
	for _, c := range l.Chain {
		raw = append(raw, c.Raw)
	}
	return tls.Certificate{Certificate: raw, PrivateKey: l.Key, Leaf: l.Cert}
}

// Issue creates a leaf signed by the CA.
func (ca *CA) Issue(opts LeafOptions) (*Leaf, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	nb, na := opts.NotBefore, opts.NotAfter
	if nb.IsZero() {
		nb = RefTime.AddDate(0, -6, 0)
	}
	if na.IsZero() {
		na = RefTime.AddDate(0, 6, 0)
	}
	tmpl := &x509.Certificate{
		SerialNumber: nextSerial(),
		Subject:      pkix.Name{CommonName: opts.CommonName},
		NotBefore:    nb,
		NotAfter:     na,
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     sanNames(opts),
	}
	for _, ip := range opts.IPs {
		tmpl.IPAddresses = append(tmpl.IPAddresses, net.IP(ip.AsSlice()))
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, pub, ca.Key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, Key: key, Chain: []*x509.Certificate{cert, ca.Cert}}, nil
}

// IssueExpired creates a leaf whose validity ended before RefTime.
// expiredSince controls how long ago it lapsed (e.g. the paper notes
// resolvers whose certificates expired in mid-2018).
func (ca *CA) IssueExpired(opts LeafOptions, expiredSince time.Duration) (*Leaf, error) {
	opts.NotAfter = RefTime.Add(-expiredSince)
	opts.NotBefore = opts.NotAfter.AddDate(-1, 0, 0)
	return ca.Issue(opts)
}

// IssueBrokenChain creates a leaf signed by a fresh intermediate that is
// *not* included in the presented chain, producing the "invalid certificate
// chain" class of Finding 1.2.
func (ca *CA) IssueBrokenChain(opts LeafOptions) (*Leaf, error) {
	interPub, interKey, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	interTmpl := &x509.Certificate{
		SerialNumber:          nextSerial(),
		Subject:               pkix.Name{CommonName: "Intermediate CA " + opts.CommonName},
		NotBefore:             RefTime.AddDate(-2, 0, 0),
		NotAfter:              RefTime.AddDate(2, 0, 0),
		IsCA:                  true,
		KeyUsage:              x509.KeyUsageCertSign,
		BasicConstraintsValid: true,
	}
	interDER, err := x509.CreateCertificate(rand.Reader, interTmpl, ca.Cert, interPub, ca.Key)
	if err != nil {
		return nil, err
	}
	inter, err := x509.ParseCertificate(interDER)
	if err != nil {
		return nil, err
	}
	interCA := &CA{Cert: inter, Key: interKey}
	leaf, err := interCA.Issue(opts)
	if err != nil {
		return nil, err
	}
	// Present the leaf alone: verifiers cannot build a path to the root.
	leaf.Chain = []*x509.Certificate{leaf.Cert}
	return leaf, nil
}

// SelfSigned creates a certificate signed by its own key.
func SelfSigned(opts LeafOptions) (*Leaf, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	nb, na := opts.NotBefore, opts.NotAfter
	if nb.IsZero() {
		nb = RefTime.AddDate(-1, 0, 0)
	}
	if na.IsZero() {
		na = RefTime.AddDate(1, 0, 0)
	}
	tmpl := &x509.Certificate{
		SerialNumber: nextSerial(),
		Subject:      pkix.Name{CommonName: opts.CommonName},
		NotBefore:    nb,
		NotAfter:     na,
		KeyUsage:     x509.KeyUsageDigitalSignature | x509.KeyUsageCertSign,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageServerAuth},
		DNSNames:     sanNames(opts),
	}
	for _, ip := range opts.IPs {
		tmpl.IPAddresses = append(tmpl.IPAddresses, net.IP(ip.AsSlice()))
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, tmpl, pub, key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, Key: key, Chain: []*x509.Certificate{cert}}, nil
}

// FortiGateDefaultCN is the Common Name of the factory-default certificate
// shipped with FortiGate firewalls; §3.2 finds 47 DoT "resolvers" presenting
// it, revealing TLS-inspection devices acting as DoT proxies.
const FortiGateDefaultCN = "FGT60D0000000000"

// FortiGateDefault creates the self-signed factory certificate of a
// FortiGate inspection device.
func FortiGateDefault() (*Leaf, error) {
	return SelfSigned(LeafOptions{CommonName: FortiGateDefaultCN})
}

// Resign forges a copy of orig with the same subject, names and validity but
// a new key, signed by ca. TLS-interception middleboxes (Finding 2.3) do
// exactly this: "all resolver certificates are re-signed by an untrusted CA,
// while other fields remain unchanged".
func (ca *CA) Resign(orig *x509.Certificate) (*Leaf, error) {
	pub, key, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, err
	}
	tmpl := &x509.Certificate{
		SerialNumber: nextSerial(),
		Subject:      orig.Subject,
		NotBefore:    orig.NotBefore,
		NotAfter:     orig.NotAfter,
		KeyUsage:     orig.KeyUsage,
		ExtKeyUsage:  orig.ExtKeyUsage,
		DNSNames:     orig.DNSNames,
		IPAddresses:  orig.IPAddresses,
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, pub, ca.Key)
	if err != nil {
		return nil, err
	}
	cert, err := x509.ParseCertificate(der)
	if err != nil {
		return nil, err
	}
	return &Leaf{Cert: cert, Key: key, Chain: []*x509.Certificate{cert, ca.Cert}}, nil
}

// sanNames returns the subject alternative names for a leaf: the explicit
// DNSNames, with a domain-shaped CommonName added if absent — modern
// verifiers ignore the CN, so real certificates always carry it as a SAN.
func sanNames(opts LeafOptions) []string {
	names := append([]string(nil), opts.DNSNames...)
	if opts.CommonName != "" && looksLikeDomain(opts.CommonName) {
		for _, n := range names {
			if n == opts.CommonName {
				return names
			}
		}
		names = append(names, opts.CommonName)
	}
	return names
}

// Status classifies a presented certificate chain.
type Status int

// Chain classifications, mirroring Finding 1.2's categories.
const (
	StatusValid Status = iota
	StatusExpired
	StatusSelfSigned
	StatusBadChain // unknown issuer or incomplete chain
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case StatusValid:
		return "valid"
	case StatusExpired:
		return "expired"
	case StatusSelfSigned:
		return "self-signed"
	case StatusBadChain:
		return "invalid chain"
	}
	return fmt.Sprintf("Status(%d)", int(s))
}

// Classify verifies the presented chain (leaf first) against roots at
// RefTime and buckets failures the way the paper reports them: expired,
// self-signed, or invalid chain. The paper's scan does not know resolver
// names, so — like the paper — no hostname comparison is performed. The
// whole status is memoized in roots under the ExtKeyUsageAny class, so a
// chain seen before costs a hash of its DER.
func Classify(chain []*x509.Certificate, roots *TrustStore) Status {
	if len(chain) == 0 {
		return StatusBadChain
	}
	raw := make([][]byte, len(chain))
	for i, c := range chain {
		raw[i] = c.Raw
	}
	k := newVerdictKey(raw, "", x509.ExtKeyUsageAny)
	return roots.memoize(k, func() verdict {
		return verdict{status: roots.classify(chain)}
	}).status
}

// classify is Classify without the memo.
func (t *TrustStore) classify(chain []*x509.Certificate) Status {
	leaf := chain[0]
	if RefTime.Before(leaf.NotBefore) || RefTime.After(leaf.NotAfter) {
		return StatusExpired
	}
	if t.verifyPath(chain, "", x509.ExtKeyUsageAny) == nil {
		return StatusValid
	}
	if isSelfSigned(leaf) {
		return StatusSelfSigned
	}
	return StatusBadChain
}

func isSelfSigned(c *x509.Certificate) bool {
	if !bytes.Equal(c.RawIssuer, c.RawSubject) {
		return false
	}
	// CheckSignature (not CheckSignatureFrom) verifies the signature with
	// the certificate's own key without requiring CA basic constraints.
	return c.CheckSignature(c.SignatureAlgorithm, c.RawTBSCertificate, c.Signature) == nil
}

// ProviderKey derives the provider-grouping key from a certificate the way
// §3.2 does: group by Common Name; if the Common Name is a domain name,
// group by its second-level domain.
func ProviderKey(c *x509.Certificate) string {
	cn := c.Subject.CommonName
	if cn == "" {
		if len(c.DNSNames) > 0 {
			cn = c.DNSNames[0]
		} else {
			return "(no common name)"
		}
	}
	if looksLikeDomain(cn) {
		return strings.TrimSuffix(sldOf(cn), ".")
	}
	return cn
}

func looksLikeDomain(s string) bool {
	if !strings.Contains(s, ".") || strings.ContainsAny(s, " /\\") {
		return false
	}
	if _, err := netip.ParseAddr(s); err == nil {
		return false
	}
	return true
}

func sldOf(name string) string {
	name = strings.ToLower(strings.TrimSuffix(name, "."))
	labels := strings.Split(name, ".")
	if len(labels) <= 2 {
		return name + "."
	}
	return strings.Join(labels[len(labels)-2:], ".") + "."
}
