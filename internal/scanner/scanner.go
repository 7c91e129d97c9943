package scanner

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/dot"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/obs"
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
	// VirtualDuration is how long the sweep would take at the configured
	// probe rate (the paper: 24 hours per scan).
	VirtualDuration time.Duration
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
	// RatePPS is the sweep's probe budget in packets per second; it
	// determines the *virtual* duration of a scan (the paper's sweeps of
	// the whole IPv4 space took 24 hours each at ZMap-conservative
	// rates). Zero disables duration accounting.
	RatePPS int
}

// Scan runs one full sweep and probe round.
func (s *Scanner) Scan(label string) (*Result, error) {
	return s.ScanContext(context.Background(), label)
}

// ScanContext is Scan with cancellation and telemetry: when ctx carries an
// obs.Recorder the round gets a "scan:<label>" span (charged with the
// sweep's virtual duration) and sweep/probe outcome counters. Per-address
// spans are deliberately not recorded — an 8k-address sweep would drown
// the trace; the round span plus counters carry the same information.
func (s *Scanner) ScanContext(ctx context.Context, label string) (*Result, error) {
	if len(s.Sources) == 0 {
		return nil, fmt.Errorf("scanner: no scan sources")
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

	// Stage 1, sweep. Drawing the permutation is cheap; the expensive part
	// is the dials, so the ordinals are materialized serially (fixing each
	// target's scan source by its position in permuted order, exactly as
	// the serial sweep alternated sources) and the dials fan out across the
	// worker pool. Open flags land at their ordinal index, so the open list
	// is identical for every worker count.
	// Counters are resolved from the worker's context inside fn, not
	// captured from the parent before MapCtx: the worker ctx carries a
	// shard registry, so outcome counts accumulate contention-free and
	// fold into the study registry when the pool joins.
	tasks := s.sweepTasks(perm, res)
	openFlags, err := runner.MapCtx(obs.WithPool(ctx, "scan-sweep"), workers, len(tasks),
		func(ctx context.Context, i int) bool {
			conn, err := s.World.Dial(tasks[i].src, tasks[i].addr, dot.Port)
			if err != nil {
				obs.Metrics(ctx).Counter("scanner_sweep_dials_total", "outcome", "closed").Add(1)
				return false
			}
			conn.Close()
			obs.Metrics(ctx).Counter("scanner_sweep_dials_total", "outcome", "open").Add(1)
			return true
		})
	if err != nil {
		return nil, fmt.Errorf("scanner: sweep %s: %w", label, err)
	}
	var open []netip.Addr
	for i, ok := range openFlags {
		if ok {
			open = append(open, tasks[i].addr)
		}
	}
	res.PortOpen = len(open)

	// Stage 2, DoT verification. Each responsive host's probe source is a
	// function of its position in the open list, so probe outcomes don't
	// depend on which worker picked the address up.
	probed, err := runner.MapCtx(obs.WithPool(ctx, "scan-probe"), workers, len(open),
		func(ctx context.Context, i int) probeOutcome {
			r, ok := s.probeDoT(s.Sources[i%len(s.Sources)], open[i])
			if ok {
				obs.Metrics(ctx).Counter("scanner_probes_total", "outcome", "resolver").Add(1)
			} else {
				obs.Metrics(ctx).Counter("scanner_probes_total", "outcome", "no-dot").Add(1)
			}
			return probeOutcome{r: r, ok: ok}
		})
	if err != nil {
		return nil, fmt.Errorf("scanner: probe %s: %w", label, err)
	}
	for _, p := range probed {
		if p.ok {
			res.Resolvers = append(res.Resolvers, p.r)
		}
	}

	sort.Slice(res.Resolvers, func(i, j int) bool {
		return res.Resolvers[i].Addr.Less(res.Resolvers[j].Addr)
	})
	if s.RatePPS > 0 {
		res.VirtualDuration = time.Duration(float64(res.ProbedAddrs)/float64(s.RatePPS)) * time.Second
	}
	span.SetInt("probed", int64(res.ProbedAddrs))
	span.SetInt("port_open", int64(res.PortOpen))
	span.SetInt("resolvers", int64(len(res.Resolvers)))
	span.Charge(res.VirtualDuration)
	return res, nil
}

// sweepTask pins one sweep target to its scan source by permuted position.
type sweepTask struct {
	addr netip.Addr
	src  netip.Addr
}

// sweepTasks materializes the permuted target list, recording opt-out skips
// into res.
func (s *Scanner) sweepTasks(perm *Permutation, res *Result) []sweepTask {
	var tasks []sweepTask
	for {
		idx, ok := perm.Next()
		if !ok {
			break
		}
		addr := s.Space.Addr(idx)
		if s.OptOut != nil && s.OptOut.Contains(addr) {
			res.SkippedOptOut++
			continue
		}
		tasks = append(tasks, sweepTask{addr: addr, src: s.Sources[len(tasks)%len(s.Sources)]})
	}
	return tasks
}

// ScanDoQ runs one full UDP/853 DoQ sweep and probe round.
func (s *Scanner) ScanDoQ(label string) (*Result, error) {
	return s.ScanDoQContext(context.Background(), label)
}

// ScanDoQContext is the DoQ counterpart of ScanContext: stage 1 sweeps the
// space with a minimal QUIC Initial datagram (any response — handshake or
// close — marks UDP/853 open, standing in for the SYN stage TCP gets for
// free), stage 2 completes RFC 9250 handshakes and verification queries
// against the responsive hosts. Sources, permutation and determinism rules
// match the DoT scan exactly.
func (s *Scanner) ScanDoQContext(ctx context.Context, label string) (*Result, error) {
	if len(s.Sources) == 0 {
		return nil, fmt.Errorf("scanner: no scan sources")
	}
	perm, err := NewPermutation(s.Space.Size, s.Seed+uint64(len(label)))
	if err != nil {
		return nil, err
	}
	ctx, span := obs.Start(ctx, "scan-doq:"+label)
	res := &Result{Label: label, ProbedAddrs: s.Space.Size}
	workers := s.Workers
	if workers <= 0 {
		workers = 8
	}

	// As in ScanContext, outcome counters resolve from the worker ctx so
	// they land in the worker's shard registry.
	tasks := s.sweepTasks(perm, res)
	probePkt := doq.Probe()
	openFlags, err := runner.MapCtx(obs.WithPool(ctx, "scan-doq-sweep"), workers, len(tasks),
		func(ctx context.Context, i int) bool {
			resp, _, err := s.World.Exchange(tasks[i].src, tasks[i].addr, doq.Port, probePkt)
			if err != nil || len(resp) == 0 {
				obs.Metrics(ctx).Counter("scanner_doq_sweep_total", "outcome", "closed").Add(1)
				return false
			}
			obs.Metrics(ctx).Counter("scanner_doq_sweep_total", "outcome", "open").Add(1)
			return true
		})
	if err != nil {
		return nil, fmt.Errorf("scanner: doq sweep %s: %w", label, err)
	}
	var open []netip.Addr
	for i, ok := range openFlags {
		if ok {
			open = append(open, tasks[i].addr)
		}
	}
	res.PortOpen = len(open)

	probed, err := runner.MapCtx(obs.WithPool(ctx, "scan-doq-probe"), workers, len(open),
		func(ctx context.Context, i int) probeOutcome {
			r, ok := s.probeDoQ(s.Sources[i%len(s.Sources)], open[i])
			if ok {
				obs.Metrics(ctx).Counter("scanner_doq_probes_total", "outcome", "resolver").Add(1)
			} else {
				obs.Metrics(ctx).Counter("scanner_doq_probes_total", "outcome", "no-doq").Add(1)
			}
			return probeOutcome{r: r, ok: ok}
		})
	if err != nil {
		return nil, fmt.Errorf("scanner: doq probe %s: %w", label, err)
	}
	for _, p := range probed {
		if p.ok {
			res.Resolvers = append(res.Resolvers, p.r)
		}
	}

	sort.Slice(res.Resolvers, func(i, j int) bool {
		return res.Resolvers[i].Addr.Less(res.Resolvers[j].Addr)
	})
	if s.RatePPS > 0 {
		res.VirtualDuration = time.Duration(float64(res.ProbedAddrs)/float64(s.RatePPS)) * time.Second
	}
	span.SetInt("probed", int64(res.ProbedAddrs))
	span.SetInt("port_open", int64(res.PortOpen))
	span.SetInt("resolvers", int64(len(res.Resolvers)))
	span.Charge(res.VirtualDuration)
	return res, nil
}

// probeDoQ completes an RFC 9250 handshake and verification query, the DoQ
// analog of probeDoT. Opportunistic profile: discovery wants answers, not
// authentication — the chain is classified afterwards like DoT's.
func (s *Scanner) probeDoQ(src, addr netip.Addr) (Resolver, bool) {
	client := doq.NewClient(s.World, src, s.Roots, dot.Opportunistic)
	conn, err := client.Dial(addr)
	if err != nil {
		return Resolver{}, false
	}
	defer conn.Close()
	resp, err := conn.Query(s.ProbeDomain, dnswire.TypeA)
	if err != nil || resp.Rcode() != dnswire.RcodeSuccess || len(resp.Msg.Answers) == 0 {
		return Resolver{}, false
	}
	r := Resolver{Addr: addr, Country: s.World.Geo.Country(addr)}
	if a, ok := resp.FirstA(); ok && s.ExpectedA.IsValid() {
		r.AnswerCorrect = a == s.ExpectedA
	}
	chain := conn.PeerCertificates()
	if len(chain) > 0 {
		r.Provider = certs.ProviderKey(chain[0])
		r.CommonName = chain[0].Subject.CommonName
		r.NotAfter = chain[0].NotAfter
		r.CertStatus = certs.Classify(chain, s.Roots)
	} else {
		r.Provider = "(no certificate)"
		r.CertStatus = certs.StatusBadChain
	}
	return r, true
}

type probeOutcome struct {
	r  Resolver
	ok bool
}

// probeDoT issues the verification query of §3.1 ("probe the addresses with
// DoT queries of a domain registered by us"). Opportunistic profile: the
// point is to find out who answers, not to authenticate them.
func (s *Scanner) probeDoT(src, addr netip.Addr) (Resolver, bool) {
	client := dot.NewClient(s.World, src, s.Roots, dot.Opportunistic)
	client.Timeout = 2 * time.Second
	conn, err := client.Dial(addr)
	if err != nil {
		return Resolver{}, false
	}
	defer conn.Close()
	resp, err := conn.Query(s.ProbeDomain, dnswire.TypeA)
	if err != nil || resp.Rcode() != dnswire.RcodeSuccess || len(resp.Msg.Answers) == 0 {
		// Port open but "not providing DoT" — the vast majority in §3.2.
		return Resolver{}, false
	}
	r := Resolver{Addr: addr, Country: s.World.Geo.Country(addr)}
	if a, ok := resp.FirstA(); ok && s.ExpectedA.IsValid() {
		r.AnswerCorrect = a == s.ExpectedA
	}
	chain := conn.PeerCertificates()
	if len(chain) > 0 {
		r.Provider = certs.ProviderKey(chain[0])
		r.CommonName = chain[0].Subject.CommonName
		r.NotAfter = chain[0].NotAfter
		r.CertStatus = certs.Classify(chain, s.Roots)
	} else {
		r.Provider = "(no certificate)"
		r.CertStatus = certs.StatusBadChain
	}
	return r, true
}
