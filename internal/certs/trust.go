package certs

import (
	"bytes"
	"crypto/sha256"
	"crypto/x509"
	"encoding/binary"
	"errors"
	"sync"
)

// TrustStore is the study's root store: the trusted roots, and a memo of
// every verdict reached against them. The world presents few distinct
// chains to many handshakes, and a verdict is a pure function of the chain,
// the name checked and the key-usage class — the roots never change after
// Pool, and every verification runs at RefTime — so each is computed once
// per store.
// Build one with Pool; it is safe for concurrent use.
type TrustStore struct {
	roots *x509.CertPool

	mu   sync.Mutex
	memo map[verdictKey]verdict
}

// verdictKey identifies one verification against a store's roots.
type verdictKey struct {
	// chain is the SHA-256 of the presented chain's DER, each certificate
	// length-prefixed, leaf first.
	chain [sha256.Size]byte
	// name is the DNS name checked, "" for none.
	name string
	// usage is the key-usage class: ExtKeyUsageServerAuth for a session's
	// verdict, ExtKeyUsageAny for a Classify status.
	usage x509.ExtKeyUsage
}

// verdict is a memoized outcome: err for a session's Verify, status for a
// Classify.
type verdict struct {
	err    error
	status Status
}

// errNoCertificate is Verify's verdict on an empty chain.
var errNoCertificate = errors.New("certs: no certificate presented")

// Pool builds a trust store whose roots are the trusted CAs among cas.
func Pool(cas ...*CA) *TrustStore {
	pool := x509.NewCertPool()
	for _, ca := range cas {
		if ca.Trusted {
			pool.AddCert(ca.Cert)
		}
	}
	return &TrustStore{roots: pool, memo: make(map[verdictKey]verdict)}
}

// Verify checks a presented chain (DER, leaf first) for server
// authentication at RefTime, the way crypto/tls does: the certificates
// after the leaf are the intermediates, and dnsName, when non-empty, must
// match the leaf. A nil error means the chain verified. A repeated chain
// returns the first verdict without being parsed again.
func (t *TrustStore) Verify(rawChain [][]byte, dnsName string) error {
	k := newVerdictKey(rawChain, dnsName, x509.ExtKeyUsageServerAuth)
	return t.memoize(k, func() verdict {
		if len(rawChain) == 0 {
			return verdict{err: errNoCertificate}
		}
		chain := make([]*x509.Certificate, len(rawChain))
		for i, der := range rawChain {
			// A stored error may reference its certificates for the
			// store's lifetime, so they must not alias the caller's bytes.
			c, err := x509.ParseCertificate(bytes.Clone(der))
			if err != nil {
				return verdict{err: err}
			}
			chain[i] = c
		}
		return verdict{err: t.verifyPath(chain, dnsName, x509.ExtKeyUsageServerAuth)}
	}).err
}

// verifyPath is the one x509 path validation behind every verdict.
func (t *TrustStore) verifyPath(chain []*x509.Certificate, dnsName string, usage x509.ExtKeyUsage) error {
	inter := x509.NewCertPool()
	for _, c := range chain[1:] {
		inter.AddCert(c)
	}
	_, err := chain[0].Verify(x509.VerifyOptions{
		Roots:         t.roots,
		Intermediates: inter,
		DNSName:       dnsName,
		CurrentTime:   RefTime,
		KeyUsages:     []x509.ExtKeyUsage{usage},
	})
	return err
}

// memoize returns k's stored verdict, or computes it outside the lock and
// stores it. Two goroutines missing on one key both compute it; they reach
// the same verdict, so either may be kept.
func (t *TrustStore) memoize(k verdictKey, compute func() verdict) verdict {
	t.mu.Lock()
	v, ok := t.memo[k]
	t.mu.Unlock()
	if ok {
		return v
	}
	v = compute()
	t.mu.Lock()
	t.memo[k] = v
	t.mu.Unlock()
	return v
}

func newVerdictKey(rawChain [][]byte, dnsName string, usage x509.ExtKeyUsage) verdictKey {
	h := sha256.New()
	var n [4]byte
	for _, der := range rawChain {
		binary.BigEndian.PutUint32(n[:], uint32(len(der)))
		h.Write(n[:])
		h.Write(der)
	}
	k := verdictKey{name: dnsName, usage: usage}
	h.Sum(k.chain[:0])
	return k
}
