package dnsserver

import (
	"fmt"
	"net/netip"
	"strings"
	"sync"
	"time"

	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/netsim"
)

// Delegate marks child (a subdomain of the zone) as delegated to nsHost
// with glue address glue. Queries for names at or below child then return a
// referral — NS in the authority section plus glue — instead of an answer,
// which is what iterative resolvers follow down the hierarchy.
func (z *Zone) Delegate(child, nsHost string, glue netip.Addr) *Zone {
	child = dnswire.CanonicalName(child)
	nsHost = dnswire.CanonicalName(nsHost)
	z.mu.Lock()
	defer z.mu.Unlock()
	z.delegations = append(z.delegations, delegation{
		child:   child,
		ns:      dnswire.Record{Name: child, Class: dnswire.ClassINET, TTL: 172800, Data: dnswire.NS{Host: nsHost}},
		glue:    dnswire.Record{Name: nsHost, Class: dnswire.ClassINET, TTL: 172800, Data: dnswire.A{Addr: glue}},
		hasGlue: glue.IsValid(),
	})
	return z
}

type delegation struct {
	child   string
	ns      dnswire.Record
	glue    dnswire.Record
	hasGlue bool
}

// referralFor returns the delegation covering name, if any. Caller holds
// the zone lock.
func (z *Zone) referralFor(name string) (delegation, bool) {
	for _, d := range z.delegations {
		if dnswire.IsSubdomain(name, d.child) {
			return d, true
		}
	}
	return delegation{}, false
}

// Iterative is a resolver that walks the authority hierarchy itself,
// starting from root servers, following referrals — optionally with QNAME
// minimisation (RFC 7816): intermediate servers only ever see the next
// label, not the full query name. Table 8 tracks QM support alongside
// DoT/DoH because both are DNS-privacy mechanisms.
type Iterative struct {
	World *netsim.World
	// Addr is the resolver's own address (source of upstream queries).
	Addr netip.Addr
	// Roots are the root server addresses.
	Roots []netip.Addr
	// QNAMEMinimisation enables RFC 7816 behaviour.
	QNAMEMinimisation bool
	// MaxSteps bounds the referral chase.
	MaxSteps int
	// BaseProc is charged per query on top of upstream round trips.
	BaseProc time.Duration

	mu  sync.Mutex
	log []SentQuery
}

// SentQuery records one upstream question, for privacy-leak inspection.
type SentQuery struct {
	Server netip.Addr
	Name   string
	Type   dnswire.Type
}

// NewIterative builds an iterative resolver.
func NewIterative(w *netsim.World, addr netip.Addr, roots []netip.Addr) *Iterative {
	return &Iterative{
		World:    w,
		Addr:     addr,
		Roots:    roots,
		MaxSteps: 16,
		BaseProc: 500 * time.Microsecond,
	}
}

// SentQueries returns a copy of every upstream question asked so far.
func (r *Iterative) SentQueries() []SentQuery {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]SentQuery(nil), r.log...)
}

func (r *Iterative) exchange(server netip.Addr, name string, qtype dnswire.Type) (*dnswire.Message, time.Duration, error) {
	r.mu.Lock()
	r.log = append(r.log, SentQuery{Server: server, Name: dnswire.CanonicalName(name), Type: qtype})
	r.mu.Unlock()
	q := dnswire.NewQuery(dnswire.NewID(), name, qtype)
	q.RecursionDesired = false
	packed, err := q.Pack()
	if err != nil {
		return nil, 0, err
	}
	raw, elapsed, err := r.World.Exchange(r.Addr, server, 53, packed)
	if err != nil {
		return nil, elapsed, err
	}
	m, err := dnswire.Unpack(raw)
	return m, elapsed, err
}

// suffixOf returns the last n labels of name as a canonical name.
func suffixOf(name string, n int) string {
	labels := strings.Split(strings.TrimSuffix(dnswire.CanonicalName(name), "."), ".")
	if n >= len(labels) {
		return dnswire.CanonicalName(name)
	}
	return dnswire.CanonicalName(strings.Join(labels[len(labels)-n:], "."))
}

func labelCount(name string) int {
	name = strings.TrimSuffix(dnswire.CanonicalName(name), ".")
	if name == "" {
		return 0
	}
	return strings.Count(name, ".") + 1
}

// glueAddrs extracts referral nameserver addresses from a response.
func glueAddrs(m *dnswire.Message) []netip.Addr {
	var out []netip.Addr
	nsTargets := map[string]bool{}
	for _, rr := range append(append([]dnswire.Record{}, m.Answers...), m.Authorities...) {
		if ns, ok := rr.Data.(dnswire.NS); ok {
			nsTargets[dnswire.CanonicalName(ns.Host)] = true
		}
	}
	for _, rr := range m.Additionals {
		if a, ok := rr.Data.(dnswire.A); ok && nsTargets[dnswire.CanonicalName(rr.Name)] {
			out = append(out, a.Addr)
		}
	}
	return out
}

// ServeDNS implements Handler.
func (r *Iterative) ServeDNS(_ netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
	q := req.Question1()
	resp := req.Reply()
	proc := r.BaseProc

	servers := r.Roots
	full := dnswire.CanonicalName(q.Name)
	depth := 1 // labels revealed so far under QM

	for step := 0; step < r.MaxSteps; step++ {
		if len(servers) == 0 {
			resp.Rcode = dnswire.RcodeServFail
			return resp, proc
		}
		name, qtype := full, q.Type
		minimized := false
		if r.QNAMEMinimisation && depth < labelCount(full) {
			name, qtype = suffixOf(full, depth), dnswire.TypeNS
			minimized = true
		}
		m, elapsed, err := r.exchange(servers[0], name, qtype)
		proc += elapsed
		if err != nil {
			resp.Rcode = dnswire.RcodeServFail
			return resp, proc
		}
		switch {
		case len(m.Answers) > 0:
			if !minimized {
				resp.Rcode = m.Rcode
				resp.Answers = append(resp.Answers, m.Answers...)
				return resp, proc
			}
			// Intermediate NS answer: descend using its glue.
			if next := glueAddrs(m); len(next) > 0 {
				servers = next
			}
			depth++
		case len(glueAddrs(m)) > 0:
			// Referral: follow the delegation.
			servers = glueAddrs(m)
			if minimized {
				depth++
			}
		case minimized && (m.Rcode == dnswire.RcodeNXDomain || m.Rcode == dnswire.RcodeRefused):
			// Empty non-terminal or an old server confused by the
			// minimized query: RFC 7816's fallback is to reveal more.
			depth++
		case minimized && m.Rcode == dnswire.RcodeSuccess:
			// NODATA for the intermediate NS query: the same server is
			// authoritative deeper; reveal the next label.
			depth++
		default:
			resp.Rcode = m.Rcode
			resp.Authorities = append(resp.Authorities, m.Authorities...)
			return resp, proc
		}
	}
	resp.Rcode = dnswire.RcodeServFail
	return resp, proc
}

// String describes the resolver configuration.
func (r *Iterative) String() string {
	return fmt.Sprintf("iterative{roots: %d, qmin: %v}", len(r.Roots), r.QNAMEMinimisation)
}
