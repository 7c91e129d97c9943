package dnsserver

import (
	"net/netip"
	"strings"
	"testing"

	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	rootIP = netip.MustParseAddr("198.41.0.4")   // root server
	tldIP  = netip.MustParseAddr("192.5.6.30")   // org. server
	sldIP  = netip.MustParseAddr("198.51.100.1") // example.org. server
	iterIP = netip.MustParseAddr("192.0.2.77")   // the iterative resolver
)

// buildHierarchy installs root → org. → example.org. authorities.
func buildHierarchy(t *testing.T) *netsim.World {
	t.Helper()
	w := netsim.NewWorld(17)
	w.Geo.Register(netip.MustParsePrefix("0.0.0.0/0"), geo.Location{Country: "US"})

	root := NewZone(".")
	root.Delegate("org.", "a.org-servers.example.", tldIP)
	w.RegisterDatagram(rootIP, 53, DatagramHandler(root))

	org := NewZone("org.")
	org.Delegate("example.org.", "ns1.example.org.", sldIP)
	w.RegisterDatagram(tldIP, 53, DatagramHandler(org))

	example := NewZone("example.org.")
	example.Add("example.org.", 3600, dnswire.NS{Host: "ns1.example.org."})
	example.Add("ns1.example.org.", 3600, dnswire.A{Addr: sldIP})
	example.Add("www.example.org.", 300, dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")})
	example.Add("txt.example.org.", 300, dnswire.TXT{Texts: []string{"hello"}})
	w.RegisterDatagram(sldIP, 53, DatagramHandler(example))
	return w
}

func resolveA(t *testing.T, r *Iterative, name string) *dnswire.Message {
	t.Helper()
	resp, _ := r.ServeDNS(iterIP, dnswire.NewQuery(1, name, dnswire.TypeA))
	return resp
}

func TestIterativeResolution(t *testing.T) {
	w := buildHierarchy(t)
	r := NewIterative(w, iterIP, []netip.Addr{rootIP})
	resp := resolveA(t, r, "www.example.org")
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("resolution failed: %v", resp)
	}
	if a, ok := resp.Answers[0].Data.(dnswire.A); !ok || a.Addr != netip.MustParseAddr("203.0.113.80") {
		t.Errorf("answer = %v", resp.Answers)
	}
	// Without QM, the full name leaks to every server on the path.
	for _, q := range r.SentQueries() {
		if q.Name != "www.example.org." {
			t.Errorf("non-QM resolver sent %q, want full name everywhere", q.Name)
		}
	}
	// Three servers: root, org, example.org.
	if n := len(r.SentQueries()); n != 3 {
		t.Errorf("queries sent = %d, want 3", n)
	}
}

func TestQNAMEMinimisationHidesFullName(t *testing.T) {
	w := buildHierarchy(t)
	r := NewIterative(w, iterIP, []netip.Addr{rootIP})
	r.QNAMEMinimisation = true
	resp := resolveA(t, r, "www.example.org")
	if resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
		t.Fatalf("QM resolution failed: %+v", resp)
	}
	// RFC 7816's property: only the final authoritative server sees the
	// full name; root and TLD see one-label-at-a-time NS queries.
	for _, q := range r.SentQueries() {
		switch q.Server {
		case rootIP:
			if q.Name != "org." {
				t.Errorf("root saw %q, want org.", q.Name)
			}
			if q.Type != dnswire.TypeNS {
				t.Errorf("root saw type %v, want NS", q.Type)
			}
		case tldIP:
			if q.Name != "example.org." {
				t.Errorf("TLD saw %q, want example.org.", q.Name)
			}
		case sldIP:
			if strings.Count(q.Name, ".") > strings.Count("www.example.org.", ".") {
				t.Errorf("SLD saw %q", q.Name)
			}
		}
	}
	// The full name must never reach the root.
	for _, q := range r.SentQueries() {
		if q.Server == rootIP && q.Name == "www.example.org." {
			t.Error("full qname leaked to the root server despite QM")
		}
	}
}

func TestIterativeNXDomain(t *testing.T) {
	w := buildHierarchy(t)
	r := NewIterative(w, iterIP, []netip.Addr{rootIP})
	resp := resolveA(t, r, "missing.example.org")
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.Rcode)
	}
}

func TestIterativeQMNXDomain(t *testing.T) {
	w := buildHierarchy(t)
	r := NewIterative(w, iterIP, []netip.Addr{rootIP})
	r.QNAMEMinimisation = true
	resp := resolveA(t, r, "missing.example.org")
	if resp.Rcode != dnswire.RcodeNXDomain {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.Rcode)
	}
}

func TestIterativeNoRootsFails(t *testing.T) {
	w := buildHierarchy(t)
	r := NewIterative(w, iterIP, nil)
	resp := resolveA(t, r, "www.example.org")
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.Rcode)
	}
}

func TestIterativeDeadRootFails(t *testing.T) {
	w := buildHierarchy(t)
	r := NewIterative(w, iterIP, []netip.Addr{netip.MustParseAddr("198.41.0.99")})
	resp := resolveA(t, r, "www.example.org")
	if resp.Rcode != dnswire.RcodeServFail {
		t.Errorf("rcode = %v, want SERVFAIL", resp.Rcode)
	}
}

func TestDelegationReferral(t *testing.T) {
	z := NewZone("org.")
	z.Delegate("example.org.", "ns1.example.org.", sldIP)
	resp, _ := z.ServeDNS(iterIP, dnswire.NewQuery(1, "deep.www.example.org", dnswire.TypeA))
	if resp.Authoritative {
		t.Error("referral marked authoritative")
	}
	if len(resp.Answers) != 0 || len(resp.Authorities) != 1 || len(resp.Additionals) != 1 {
		t.Fatalf("referral sections = %d/%d/%d", len(resp.Answers), len(resp.Authorities), len(resp.Additionals))
	}
	if ns, ok := resp.Authorities[0].Data.(dnswire.NS); !ok || ns.Host != "ns1.example.org." {
		t.Errorf("referral NS = %v", resp.Authorities[0])
	}
}
