package certs

import (
	"crypto/ecdsa"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/x509"
	"crypto/x509/pkix"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"
)

// chainCase is one presented chain and the DNS name a session checks.
type chainCase struct {
	name    string
	chain   []*x509.Certificate
	dnsName string
}

func (c chainCase) raw() [][]byte {
	raw := make([][]byte, len(c.chain))
	for i, cert := range c.chain {
		raw[i] = cert.Raw
	}
	return raw
}

// worldChains issues every chain class the world presents, plus two it
// does not: a name that does not match, and a leaf without the
// server-auth EKU. It returns the trusted CA with them.
func worldChains(t testing.TB) (*CA, []chainCase) {
	t.Helper()
	ca, err := NewCA("DoE Test Root", true)
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := NewCA("SonicWall Firewall DPI-SSL", false)
	if err != nil {
		t.Fatal(err)
	}
	must := func(l *Leaf, err error) []*x509.Certificate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l.Chain
	}
	valid := must(ca.Issue(LeafOptions{CommonName: "dns.example.com"}))
	return ca, []chainCase{
		{"valid", valid, ""},
		{"valid, name matches", valid, "dns.example.com"},
		{"valid, name does not match", valid, "other.example.com"},
		{"expired", must(ca.IssueExpired(LeafOptions{CommonName: "old.example.com"}, 9*30*24*time.Hour)), ""},
		{"not yet valid", must(ca.Issue(LeafOptions{
			CommonName: "new.example.com", NotBefore: RefTime.AddDate(0, 1, 0), NotAfter: RefTime.AddDate(1, 0, 0),
		})), ""},
		{"self-signed", must(SelfSigned(LeafOptions{CommonName: "Perfect Privacy"})), ""},
		{"FortiGate default", must(FortiGateDefault()), ""},
		{"broken chain", must(ca.IssueBrokenChain(LeafOptions{CommonName: "dns.broken.example"})), ""},
		{"re-signed by an untrusted CA", must(rogue.Resign(valid[0])), "dns.example.com"},
		{"no server-auth EKU", clientAuthChain(t, ca), ""},
	}
}

// clientAuthChain issues, from a template, a leaf that may only
// authenticate clients: Classify accepts any usage, a session does not.
// Its key is ECDSA P-256 under the Ed25519 CA, so the chain also mixes
// algorithms.
func clientAuthChain(t testing.TB, ca *CA) []*x509.Certificate {
	t.Helper()
	key, err := ecdsa.GenerateKey(elliptic.P256(), rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := &x509.Certificate{
		SerialNumber: nextSerial(),
		Subject:      pkix.Name{CommonName: "client.example.com"},
		NotBefore:    RefTime.AddDate(0, -6, 0),
		NotAfter:     RefTime.AddDate(0, 6, 0),
		KeyUsage:     x509.KeyUsageDigitalSignature,
		ExtKeyUsage:  []x509.ExtKeyUsage{x509.ExtKeyUsageClientAuth},
	}
	der, err := x509.CreateCertificate(rand.Reader, tmpl, ca.Cert, &key.PublicKey, ca.Key)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := x509.ParseCertificate(der)
	if err != nil {
		t.Fatal(err)
	}
	return []*x509.Certificate{leaf, ca.Cert}
}

func rootPool(cas ...*CA) *x509.CertPool {
	pool := x509.NewCertPool()
	for _, ca := range cas {
		pool.AddCert(ca.Cert)
	}
	return pool
}

// referenceVerify is a session's chain check as the transports made it
// before the store: parse the DER afresh, pool the intermediates, Verify
// with the default key usage.
func referenceVerify(raw [][]byte, roots *x509.CertPool, dnsName string) error {
	chain := make([]*x509.Certificate, len(raw))
	for i, der := range raw {
		c, err := x509.ParseCertificate(der)
		if err != nil {
			return err
		}
		chain[i] = c
	}
	inter := x509.NewCertPool()
	for _, c := range chain[1:] {
		inter.AddCert(c)
	}
	_, err := chain[0].Verify(x509.VerifyOptions{
		Roots: roots, Intermediates: inter, DNSName: dnsName, CurrentTime: RefTime,
	})
	return err
}

// referenceClassify is Classify as it was before the store.
func referenceClassify(chain []*x509.Certificate, roots *x509.CertPool) Status {
	if len(chain) == 0 {
		return StatusBadChain
	}
	leaf := chain[0]
	if RefTime.Before(leaf.NotBefore) || RefTime.After(leaf.NotAfter) {
		return StatusExpired
	}
	inter := x509.NewCertPool()
	for _, c := range chain[1:] {
		inter.AddCert(c)
	}
	_, err := leaf.Verify(x509.VerifyOptions{
		Roots: roots, Intermediates: inter, CurrentTime: RefTime,
		KeyUsages: []x509.ExtKeyUsage{x509.ExtKeyUsageAny},
	})
	if err == nil {
		return StatusValid
	}
	if isSelfSigned(leaf) {
		return StatusSelfSigned
	}
	return StatusBadChain
}

// causes lists the x509 error types errors.As finds in err.
func causes(err error) string {
	var (
		uae x509.UnknownAuthorityError
		he  x509.HostnameError
		cie x509.CertificateInvalidError
	)
	return fmt.Sprintf("unknown-authority=%v hostname=%v invalid=%v",
		errors.As(err, &uae), errors.As(err, &he), errors.As(err, &cie))
}

// sameVerdict reports how got differs from the reference verdict want.
func sameVerdict(got, want error) error {
	switch {
	case (got == nil) != (want == nil):
		return fmt.Errorf("verdict %v, reference %v", got, want)
	case got == nil:
		return nil
	case got.Error() != want.Error():
		return fmt.Errorf("text %q, reference %q", got.Error(), want.Error())
	case reflect.TypeOf(got) != reflect.TypeOf(want):
		return fmt.Errorf("type %T, reference %T", got, want)
	case causes(got) != causes(want):
		return fmt.Errorf("errors.As finds %s, reference %s", causes(got), causes(want))
	}
	return nil
}

// TestStoreMatchesFreshVerification is the store's equivalence proof: for
// every chain class, its first and its repeated verdicts equal a fresh
// x509 verification, and Classify equals an unmemoized classification.
func TestStoreMatchesFreshVerification(t *testing.T) {
	ca, cases := worldChains(t)
	roots := rootPool(ca)
	store := Pool(ca)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := referenceVerify(c.raw(), roots, c.dnsName)
			for _, pass := range []string{"first", "repeated"} {
				if err := sameVerdict(store.Verify(c.raw(), c.dnsName), want); err != nil {
					t.Errorf("%s Verify: %v", pass, err)
				}
			}
			wantStatus := referenceClassify(c.chain, roots)
			for _, pass := range []string{"first", "repeated"} {
				if got := Classify(c.chain, store); got != wantStatus {
					t.Errorf("%s Classify = %v, reference %v", pass, got, wantStatus)
				}
			}
		})
	}
}

// TestSessionVerifiedImpliesValid is the premise of the scanner's
// shortcut: every chain a session verifies (server auth, no name, at
// RefTime) classifies valid. The converse fails, and the client-auth-only
// leaf shows it: valid to Classify, refused by a session.
func TestSessionVerifiedImpliesValid(t *testing.T) {
	ca, cases := worldChains(t)
	store := Pool(ca)
	verified := 0
	for _, c := range cases {
		err := store.Verify(c.raw(), "")
		status := Classify(c.chain, store)
		if err == nil {
			verified++
			if status != StatusValid {
				t.Errorf("%s: the session verified it, Classify = %v", c.name, status)
			}
		}
		if c.name == "no server-auth EKU" && (err == nil || status != StatusValid) {
			t.Errorf("%s: Verify = %v, Classify = %v; want a refused session and a valid chain", c.name, err, status)
		}
	}
	if verified == 0 {
		t.Error("no chain verified")
	}
}

// TestUsageClassIsPartOfTheKey: a client-auth leaf is valid to Classify
// (any usage) but fails a session (server auth). Whichever verdict the
// store reaches first, the other is not served from it.
func TestUsageClassIsPartOfTheKey(t *testing.T) {
	ca, err := NewCA("DoE Test Root", true)
	if err != nil {
		t.Fatal(err)
	}
	c := chainCase{chain: clientAuthChain(t, ca)}
	for _, classifyFirst := range []bool{true, false} {
		store := Pool(ca)
		var status Status
		if classifyFirst {
			status = Classify(c.chain, store)
		}
		err := store.Verify(c.raw(), "")
		if !classifyFirst {
			status = Classify(c.chain, store)
		}
		var cie x509.CertificateInvalidError
		if !errors.As(err, &cie) || cie.Reason != x509.IncompatibleUsage {
			t.Errorf("classifyFirst=%v: Verify = %v, want an incompatible key usage", classifyFirst, err)
		}
		if status != StatusValid {
			t.Errorf("classifyFirst=%v: Classify = %v, want valid", classifyFirst, status)
		}
	}
}

// TestStoresKeepTheirOwnVerdicts: one chain, two stores with different
// roots, interleaved — each answers from its own roots.
func TestStoresKeepTheirOwnVerdicts(t *testing.T) {
	ca, cases := worldChains(t)
	other, err := NewCA("Other Root", true)
	if err != nil {
		t.Fatal(err)
	}
	trusting, distrusting := Pool(ca), Pool(other)
	valid := cases[0]
	for i := 0; i < 2; i++ {
		if err := trusting.Verify(valid.raw(), ""); err != nil {
			t.Errorf("round %d: trusting store: %v", i, err)
		}
		var uae x509.UnknownAuthorityError
		if err := distrusting.Verify(valid.raw(), ""); !errors.As(err, &uae) {
			t.Errorf("round %d: distrusting store = %v, want unknown authority", i, err)
		}
		if got := Classify(valid.chain, trusting); got != StatusValid {
			t.Errorf("round %d: trusting Classify = %v", i, got)
		}
		if got := Classify(valid.chain, distrusting); got != StatusBadChain {
			t.Errorf("round %d: distrusting Classify = %v", i, got)
		}
	}
}

// TestStoreHoldsOneEntryPerChain: N verifications over k distinct chains
// leave k entries.
func TestStoreHoldsOneEntryPerChain(t *testing.T) {
	ca, cases := worldChains(t)
	var distinct []chainCase
	seen := map[*x509.Certificate]bool{}
	for _, c := range cases {
		if !seen[c.chain[0]] {
			seen[c.chain[0]] = true
			distinct = append(distinct, c)
		}
	}
	store := Pool(ca)
	const n = 100
	for i := 0; i < n; i++ {
		_ = store.Verify(distinct[i%len(distinct)].raw(), "") // counting entries, not checking verdicts
	}
	if got, want := len(store.memo), len(distinct); got != want {
		t.Errorf("%d calls over %d chains left %d entries", n, want, got)
	}
}

// TestStoreConcurrentVerdicts runs 16 goroutines over every chain class on
// one store; each verdict must equal the reference. Run under -race.
func TestStoreConcurrentVerdicts(t *testing.T) {
	ca, cases := worldChains(t)
	roots := rootPool(ca)
	want := make([]error, len(cases))
	wantStatus := make([]Status, len(cases))
	for i, c := range cases {
		want[i] = referenceVerify(c.raw(), roots, c.dnsName)
		wantStatus[i] = referenceClassify(c.chain, roots)
	}
	store := Pool(ca)
	var wg sync.WaitGroup
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range cases {
				j := (g + i) % len(cases)
				c := cases[j]
				if err := sameVerdict(store.Verify(c.raw(), c.dnsName), want[j]); err != nil {
					t.Errorf("goroutine %d, %s: %v", g, c.name, err)
				}
				if got := Classify(c.chain, store); got != wantStatus[j] {
					t.Errorf("goroutine %d, %s: Classify = %v, reference %v", g, c.name, got, wantStatus[j])
				}
			}
		}(g)
	}
	wg.Wait()
}

// BenchmarkVerifyChain prices one verification of a leaf and its trusted
// root: miss is a fresh store each time (parse, path building, the Ed25519
// signature check), hit a store that has seen the chain (a SHA-256 of the
// DER and a map probe).
func BenchmarkVerifyChain(b *testing.B) {
	ca, cases := worldChains(b)
	raw := cases[0].raw()
	run := func(b *testing.B, store func() *TrustStore) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := store().Verify(raw, ""); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("miss", func(b *testing.B) {
		run(b, func() *TrustStore { return Pool(ca) })
	})
	b.Run("hit", func(b *testing.B) {
		s := Pool(ca)
		if err := s.Verify(raw, ""); err != nil {
			b.Fatal(err)
		}
		run(b, func() *TrustStore { return s })
	})
}
