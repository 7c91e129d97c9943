package certs

import (
	"crypto/x509"
	"net/netip"
	"testing"
	"time"
)

func newTestCA(t *testing.T) *CA {
	t.Helper()
	ca, err := NewCA("DoE Test Root", true)
	if err != nil {
		t.Fatalf("NewCA: %v", err)
	}
	return ca
}

func TestValidLeafClassifiesValid(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(LeafOptions{
		CommonName: "dns.example.com",
		DNSNames:   []string{"dns.example.com"},
		IPs:        []netip.Addr{netip.MustParseAddr("192.0.2.1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(leaf.Chain, Pool(ca)); got != StatusValid {
		t.Errorf("Classify = %v, want valid", got)
	}
}

func TestExpiredLeaf(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.IssueExpired(LeafOptions{CommonName: "old.example.com"}, 9*30*24*time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(leaf.Chain, Pool(ca)); got != StatusExpired {
		t.Errorf("Classify = %v, want expired", got)
	}
	// The paper notes certificates that expired in Jul 2018, ~9 months
	// before the May 1 2019 scan.
	if !leaf.Cert.NotAfter.Before(RefTime) {
		t.Error("expired cert NotAfter not before RefTime")
	}
}

func TestSelfSignedLeaf(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := SelfSigned(LeafOptions{CommonName: "Perfect Privacy"})
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(leaf.Chain, Pool(ca)); got != StatusSelfSigned {
		t.Errorf("Classify = %v, want self-signed", got)
	}
}

func TestBrokenChainLeaf(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.IssueBrokenChain(LeafOptions{CommonName: "dns.broken.example"})
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(leaf.Chain, Pool(ca)); got != StatusBadChain {
		t.Errorf("Classify = %v, want invalid chain", got)
	}
}

func TestUntrustedCAChain(t *testing.T) {
	trusted := newTestCA(t)
	rogue, err := NewCA("DPI Device CA", false)
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := rogue.Issue(LeafOptions{CommonName: "dns.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	if got := Classify(leaf.Chain, Pool(trusted, rogue)); got != StatusBadChain {
		t.Errorf("Classify = %v, want invalid chain (rogue CA not in pool)", got)
	}
}

func TestEmptyChain(t *testing.T) {
	if got := Classify(nil, Pool()); got != StatusBadChain {
		t.Errorf("Classify(nil) = %v, want invalid chain", got)
	}
}

func TestResignPreservesFieldsButFailsVerification(t *testing.T) {
	ca := newTestCA(t)
	orig, err := ca.Issue(LeafOptions{
		CommonName: "cloudflare-dns.com",
		DNSNames:   []string{"cloudflare-dns.com", "1dot1dot1dot1.cloudflare-dns.com"},
		IPs:        []netip.Addr{netip.MustParseAddr("1.1.1.1")},
	})
	if err != nil {
		t.Fatal(err)
	}
	mitm, err := NewCA("SonicWall Firewall DPI-SSL", false)
	if err != nil {
		t.Fatal(err)
	}
	forged, err := mitm.Resign(orig.Cert)
	if err != nil {
		t.Fatal(err)
	}
	if forged.Cert.Subject.CommonName != orig.Cert.Subject.CommonName {
		t.Error("Resign changed the subject")
	}
	if len(forged.Cert.DNSNames) != 2 {
		t.Errorf("Resign lost SANs: %v", forged.Cert.DNSNames)
	}
	if got := Classify(forged.Chain, Pool(ca)); got != StatusBadChain {
		t.Errorf("forged chain = %v, want invalid chain", got)
	}
	if got := Classify(orig.Chain, Pool(ca)); got != StatusValid {
		t.Errorf("original chain = %v, want valid", got)
	}
}

func TestFortiGateDefault(t *testing.T) {
	leaf, err := FortiGateDefault()
	if err != nil {
		t.Fatal(err)
	}
	if leaf.Cert.Subject.CommonName != FortiGateDefaultCN {
		t.Errorf("CN = %q", leaf.Cert.Subject.CommonName)
	}
	if got := Classify(leaf.Chain, Pool()); got != StatusSelfSigned {
		t.Errorf("Classify = %v, want self-signed", got)
	}
}

func TestProviderKey(t *testing.T) {
	ca := newTestCA(t)
	cases := []struct {
		cn   string
		want string
	}{
		{"dns.example.com", "example.com"},
		{"one.one.one.one", "one.one"},
		{"Perfect Privacy", "Perfect Privacy"},
		{"cleanbrowsing.org", "cleanbrowsing.org"},
		{FortiGateDefaultCN, FortiGateDefaultCN},
	}
	for _, c := range cases {
		leaf, err := ca.Issue(LeafOptions{CommonName: c.cn})
		if err != nil {
			t.Fatal(err)
		}
		if got := ProviderKey(leaf.Cert); got != c.want {
			t.Errorf("ProviderKey(%q) = %q, want %q", c.cn, got, c.want)
		}
	}
}

// sldOf is the second-level domain ProviderKey groups domain-shaped Common
// Names by.
func TestSLD(t *testing.T) {
	cases := map[string]string{
		"dns.example.com":            "example.com.",
		"a.b.c.example.org.":         "example.org.",
		"example.com":                "example.com.",
		"com":                        "com.",
		".":                          ".",
		"mozilla.cloudflare-dns.com": "cloudflare-dns.com.",
		"DNS.Example.COM":            "example.com.",
	}
	for in, want := range cases {
		if got := sldOf(in); got != want {
			t.Errorf("sldOf(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestProviderKeyNoCN(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(LeafOptions{DNSNames: []string{"dns.fallback.example.org"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ProviderKey(leaf.Cert); got != "example.org" {
		t.Errorf("ProviderKey = %q, want example.org", got)
	}
}

func TestTLSCertificate(t *testing.T) {
	ca := newTestCA(t)
	leaf, err := ca.Issue(LeafOptions{CommonName: "dns.example.com"})
	if err != nil {
		t.Fatal(err)
	}
	tc := leaf.TLSCertificate()
	if len(tc.Certificate) != 2 {
		t.Errorf("chain length = %d, want 2", len(tc.Certificate))
	}
	if tc.Leaf == nil || tc.PrivateKey == nil {
		t.Error("TLSCertificate missing leaf or key")
	}
}

func TestStatusString(t *testing.T) {
	want := map[Status]string{
		StatusValid:      "valid",
		StatusExpired:    "expired",
		StatusSelfSigned: "self-signed",
		StatusBadChain:   "invalid chain",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("Status(%d).String() = %q, want %q", int(s), s.String(), w)
		}
	}
}

// TestEveryIssuingPathIsEd25519 pins the key and the signature algorithm
// of every certificate the toolkit makes. A broken chain presents its leaf
// without the intermediate that signed it, so the leaf's signature
// algorithm is the intermediate's key algorithm.
func TestEveryIssuingPathIsEd25519(t *testing.T) {
	ca := newTestCA(t)
	rogue, err := NewCA("DPI Device CA", false)
	if err != nil {
		t.Fatal(err)
	}
	opts := LeafOptions{CommonName: "dns.example.com"}
	leaf := func(l *Leaf, err error) *x509.Certificate {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return l.Cert
	}
	issued := leaf(ca.Issue(opts))
	for _, c := range []struct {
		path string
		cert *x509.Certificate
	}{
		{"NewCA", ca.Cert},
		{"Issue", issued},
		{"IssueExpired", leaf(ca.IssueExpired(opts, 24*time.Hour))},
		{"IssueBrokenChain", leaf(ca.IssueBrokenChain(opts))},
		{"SelfSigned", leaf(SelfSigned(opts))},
		{"FortiGateDefault", leaf(FortiGateDefault())},
		{"Resign", leaf(rogue.Resign(issued))},
	} {
		if c.cert.PublicKeyAlgorithm != x509.Ed25519 || c.cert.SignatureAlgorithm != x509.PureEd25519 {
			t.Errorf("%s: key %v, signature %v; want Ed25519, Ed25519",
				c.path, c.cert.PublicKeyAlgorithm, c.cert.SignatureAlgorithm)
		}
	}
}
