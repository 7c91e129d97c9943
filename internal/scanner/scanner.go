package scanner

import (
	"context"
	"crypto/x509"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/runner"
)

// Resolver is one verified open DoT resolver discovered by a scan.
type Resolver struct {
	Addr netip.Addr
	// Provider is the grouping key from the certificate Common Name
	// (SLD for domain-shaped CNs), per §3.2.
	Provider string
	// CommonName is the certificate subject CN as presented.
	CommonName string
	// CertStatus classifies the presented chain against the root store.
	CertStatus certs.Status
	// NotAfter is the leaf's expiry (spotting long-expired certificates).
	NotAfter time.Time
	// AnswerCorrect reports whether the resolver returned the
	// authoritative answer for the probe domain (dnsfilter-style
	// services fail this).
	AnswerCorrect bool
	// Country is the resolver's geolocation.
	Country string
}

// Result is the outcome of one Internet-wide DoT scan.
type Result struct {
	// Label identifies the scan round (the paper scans every 10 days,
	// "Feb 1" ... "May 1").
	Label string
	// ProbedAddrs is how many addresses the sweep covered.
	ProbedAddrs uint64
	// PortOpen counts hosts accepting connections on 853.
	PortOpen int
	// SkippedOptOut counts addresses excluded by the opt-out list.
	SkippedOptOut int
	// Resolvers are the verified open DoT resolvers.
	Resolvers []Resolver
}

// ProviderCounts groups the scan's resolvers by provider.
func (r *Result) ProviderCounts() map[string]int {
	m := make(map[string]int)
	for _, res := range r.Resolvers {
		m[res.Provider]++
	}
	return m
}

// InvalidCertProviders returns providers with at least one resolver whose
// certificate fails validation (Finding 1.2's 25%).
func (r *Result) InvalidCertProviders() []string {
	set := map[string]bool{}
	for _, res := range r.Resolvers {
		if res.CertStatus != certs.StatusValid {
			set[res.Provider] = true
		}
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// CountryCounts groups the scan's resolvers by country.
func (r *Result) CountryCounts() map[string]int {
	m := make(map[string]int)
	for _, res := range r.Resolvers {
		m[res.Country]++
	}
	return m
}

// Space is the IPv4 range a sweep covers.
type Space struct {
	Base netip.Addr
	// Size is the number of addresses from Base.
	Size uint64
}

// Addr returns the i-th address of the space.
func (s Space) Addr(i uint64) netip.Addr {
	b := s.Base.As4()
	v := uint64(b[0])<<24 | uint64(b[1])<<16 | uint64(b[2])<<8 | uint64(b[3])
	v += i
	return netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
}

// Scanner performs §3.1's two-stage discovery: a port-853 sweep in
// permuted order, then DoT verification probes of responsive hosts.
type Scanner struct {
	World *netsim.World
	// Sources are the scan origins (the paper used 3 cloud addresses in
	// China and the US); the sweep alternates between them.
	Sources []netip.Addr
	// Space is the address range to cover.
	Space Space
	// OptOut excludes networks that requested exclusion.
	OptOut *netsim.OptOutList
	// ProbeDomain is a domain registered by the scanners; open resolvers
	// must answer it (via the measurement zone).
	ProbeDomain string
	// ExpectedA is the authoritative answer, used for validation.
	ExpectedA netip.Addr
	// Roots is the trust store for certificate classification.
	Roots *certs.TrustStore
	// Workers bounds concurrent DoT probes.
	Workers int
	// Seed randomizes the sweep order.
	Seed uint64
}

// ScanContext runs one full sweep and probe round under ctx's
// cancellation: stage 1 completes a TCP handshake with every address of the
// space on port 853, stage 2 sends a DoT query to every host that accepted.
// When ctx carries an obs.Recorder the round gets a "scan:<label>" span and
// sweep/probe outcome counters. Per-address spans are deliberately not
// recorded — an 8k-address sweep would drown the trace; the round span
// plus counters carry the same information.
func (s *Scanner) ScanContext(ctx context.Context, label string) (*Result, error) {
	if len(s.Sources) == 0 {
		return nil, fmt.Errorf("scanner: no scan sources")
	}
	if s.Space.Size > 1<<32 {
		return nil, fmt.Errorf("scanner: space of %d addresses exceeds IPv4", s.Space.Size)
	}
	perm, err := NewPermutation(s.Space.Size, s.Seed+uint64(len(label)))
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "scan:"+label)
	res := &Result{Label: label, ProbedAddrs: s.Space.Size}
	workers := s.Workers
	if workers <= 0 {
		workers = 8
	}
	// The outcome counters are resolved once per round, not once per task.
	// With telemetry off they are nil, and Add on nil does nothing.
	m := obs.Metrics(ctx)
	sweepOpen := m.Counter("scanner_sweep_dials_total", "outcome", "open")
	sweepClosed := m.Counter("scanner_sweep_dials_total", "outcome", "closed")
	probeResolver := m.Counter("scanner_probes_total", "outcome", "resolver")
	probeNoDoT := m.Counter("scanner_probes_total", "outcome", "no-dot")

	// Stage 1, sweep. Drawing the permutation is cheap; the expensive part
	// is the dials, so the targets are materialized serially and the dials
	// fan out across the worker pool. Target i sweeps from source
	// i mod len(Sources), exactly as the serial sweep alternated sources,
	// and open flags land at their ordinal index, so the open list is
	// identical for every worker count.
	targets := s.sweepTargets(perm, res)
	openFlags, err := runner.MapCtx(obs.WithPool(ctx, "scan-sweep"), workers, len(targets),
		func(ctx context.Context, i int) bool {
			open := s.open(s.Sources[i%len(s.Sources)], s.Space.Addr(uint64(targets[i])))
			if open {
				sweepOpen.Add(1)
			} else {
				sweepClosed.Add(1)
			}
			return open
		})
	if err != nil {
		return nil, fmt.Errorf("scanner: scan-sweep %s: %w", label, err)
	}
	var open []netip.Addr
	for i, ok := range openFlags {
		if ok {
			open = append(open, s.Space.Addr(uint64(targets[i])))
		}
	}
	res.PortOpen = len(open)

	// Stage 2, verification. Each responsive host's probe source is a
	// function of its position in the open list, so probe outcomes don't
	// depend on which worker picked the address up.
	probed, err := runner.MapCtx(obs.WithPool(ctx, "scan-probe"), workers, len(open),
		func(ctx context.Context, i int) probeOutcome {
			r, ok := s.probe(ctx, s.Sources[i%len(s.Sources)], open[i])
			if ok {
				probeResolver.Add(1)
			} else {
				probeNoDoT.Add(1)
			}
			return probeOutcome{r: r, ok: ok}
		})
	if err != nil {
		return nil, fmt.Errorf("scanner: scan-probe %s: %w", label, err)
	}
	for _, po := range probed {
		if po.ok {
			res.Resolvers = append(res.Resolvers, po.r)
		}
	}

	sort.Slice(res.Resolvers, func(i, j int) bool {
		return res.Resolvers[i].Addr.Less(res.Resolvers[j].Addr)
	})
	span.SetInt("probed", int64(res.ProbedAddrs))
	span.SetInt("port_open", int64(res.PortOpen))
	span.SetInt("resolvers", int64(len(res.Resolvers)))
	return res, nil
}

// open completes a TCP handshake to port 853 and hangs up.
func (s *Scanner) open(src, addr netip.Addr) bool {
	conn, err := s.World.Dial(src, addr, dot.Port)
	if err != nil {
		return false
	}
	conn.Close()
	return true
}

// sweepTargets materializes the permuted targets as offsets into the
// space, recording opt-out skips into res. Four bytes per target, with no
// pointer for the collector to scan: a round sweeps every address.
func (s *Scanner) sweepTargets(perm *Permutation, res *Result) []uint32 {
	targets := make([]uint32, 0, s.Space.Size)
	for {
		idx, ok := perm.Next()
		if !ok {
			break
		}
		if s.OptOut != nil && s.OptOut.Contains(s.Space.Addr(idx)) {
			res.SkippedOptOut++
			continue
		}
		targets = append(targets, uint32(idx))
	}
	return targets
}

type probeOutcome struct {
	r  Resolver
	ok bool
}

// probe issues the verification query of §3.1 ("probe the addresses with
// DoT queries of a domain registered by us") and classifies the presented
// chain. The session opens Opportunistically — the point is to find out
// who answers, not to authenticate them — and arms no real-time guard:
// every host answers, closes or refuses in virtual time, and only ctx's
// own deadline bounds the wait.
func (s *Scanner) probe(ctx context.Context, src, addr netip.Addr) (Resolver, bool) {
	c := resolver.New(s.World, src, s.Roots)
	sess, err := c.Dial(ctx, resolver.ProtoDoT, resolver.Endpoint{Addr: addr})
	if err != nil {
		return Resolver{}, false
	}
	defer sess.Close()
	resp, err := sess.Exchange(ctx, dnswire.NewQuery(0, s.ProbeDomain, dnswire.TypeA))
	if err != nil || resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
		// Port open but not a resolver — the vast majority in §3.2.
		return Resolver{}, false
	}
	r := Resolver{Addr: addr, Country: s.World.Geo.Country(addr)}
	if a, ok := resp.FirstA(); ok && s.ExpectedA.IsValid() {
		r.AnswerCorrect = a == s.ExpectedA
	}
	var (
		chain    []*x509.Certificate
		verified bool
	)
	if v, ok := sess.(resolver.Verified); ok {
		chain, verified = v.PeerCertificates(), v.VerifyError() == nil
	}
	if len(chain) > 0 {
		r.Provider = certs.ProviderKey(chain[0])
		r.CommonName = chain[0].Subject.CommonName
		r.NotAfter = chain[0].NotAfter
		// A chain the session verified for server auth at RefTime is
		// inside its validity window and verifies for any usage, so it
		// is valid without a second path validation. (A probe session
		// never resumes, so a nil VerifyError means the chain was
		// checked.) The converse does not hold: a client-auth-only leaf
		// classifies valid but fails a session, so every chain the
		// session did not verify is classified.
		if verified {
			r.CertStatus = certs.StatusValid
		} else {
			r.CertStatus = certs.Classify(chain, s.Roots)
		}
	} else {
		r.Provider = "(no certificate)"
		r.CertStatus = certs.StatusBadChain
	}
	return r, true
}
