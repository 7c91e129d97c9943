// Package vantage is the client-side measurement platform of §4: from each
// proxy-network exit node it runs the Fig. 7 reachability workflow
// (clear-text DNS/TCP, DoT and DoH queries against a resolver list, with
// certificate collection and verification), the failure forensics of
// Finding 2.1 (port probes and webpage fetches of conflicted addresses),
// the TLS-interception detection of Finding 2.3, and the relative
// performance tests of §4.3.
package vantage

import (
	"context"
	"net/netip"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
	"unicode/utf8"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
)

// endpoints is the leg table every measurement walks: where a Target keeps
// each resolver protocol's endpoint, indexed by resolver.Proto and walked
// in that order. The clear-text probe is DNS over TCP/53.
var endpoints = [...]func(Target) resolver.Endpoint{
	resolver.ProtoTCP: func(t Target) resolver.Endpoint { return resolver.Endpoint{Addr: t.DNS} },
	resolver.ProtoDoT: func(t Target) resolver.Endpoint { return resolver.Endpoint{Addr: t.DoT} },
	resolver.ProtoDoH: func(t Target) resolver.Endpoint { return resolver.Endpoint{Addr: t.DoHAddr, Template: t.DoH} },
	resolver.ProtoDoQ: func(t Target) resolver.Endpoint { return resolver.Endpoint{Addr: t.DoQ} },
}

// Label names p wherever the measurements do — spans, metric labels and
// report columns: resolver.Proto.String's name, except that the
// clear-text probe, DNS over TCP/53, is "dns".
func Label(p resolver.Proto) string {
	if p == resolver.ProtoTCP {
		return "dns"
	}
	return p.String()
}

// Outcome classifies one lookup per Table 4's footnote: Failed = no DNS
// response packets; Incorrect = SERVFAIL or zero-answer (or spoofed)
// responses; Correct = the authoritative answer.
type Outcome int

// Outcomes.
const (
	Correct Outcome = iota
	Incorrect
	Failed
)

// String implements fmt.Stringer.
func (o Outcome) String() string {
	switch o {
	case Correct:
		return "correct"
	case Incorrect:
		return "incorrect"
	default:
		return "failed"
	}
}

// Target is one resolver in the test list (Fig. 7). Invalid addresses mark
// services the resolver does not offer (Google DoT was not announced at the
// time of the experiment).
type Target struct {
	Name    string
	DNS     netip.Addr
	DoT     netip.Addr
	DoH     doh.Template
	DoHAddr netip.Addr
	DoQ     netip.Addr
}

// Result is one lookup's classification.
type Result struct {
	NodeID   string
	Country  string
	ASN      int
	ASName   string
	Resolver string
	Proto    resolver.Proto
	Outcome  Outcome
	// Intercepted marks sessions whose certificate was re-signed by an
	// untrusted CA while the lookup still answered (opportunistic DoT
	// through a TLS-inspecting middlebox).
	Intercepted bool
	// IssuerCN is the certificate issuer observed on encrypted probes.
	IssuerCN string
	// Err preserves the failure cause.
	Err string
	// Dropped marks measurements lost to proxy-platform disruption (exit
	// node churn); the paper removes such nodes from its dataset, so
	// dropped results are excluded from every tally.
	Dropped bool
	// Attempts is the number of dial+query attempts this result consumed
	// (1 unless the platform has a retry budget and the first try failed).
	Attempts int
	// Recovered marks results that failed at least once and then
	// succeeded within the retry budget — the fault-injection experiments
	// report these separately from hard failures.
	Recovered bool
	// Setup is the session-establishment latency of the lookup's final
	// attempt (0 when no session was established). The streaming
	// campaign's per-protocol latency sketches are fed from it.
	Setup time.Duration
}

// Platform drives measurements through a proxy network.
type Platform struct {
	Network *proxy.Network
	// From is the measurement client's own address.
	From  netip.Addr
	Roots *certs.TrustStore
	// ProbeZone is the measurement domain; queries use unique prefixes
	// "in order to avoid caching".
	ProbeZone string
	// ExpectedA is the authoritative answer for probe names.
	ExpectedA netip.Addr
	// MinUptime discards exit nodes expiring sooner than this.
	MinUptime time.Duration
	// Retry gives every lookup an attempt budget: a Failed outcome (no
	// DNS response) re-runs the whole dial+query sequence up to
	// Retry.Attempts times. Incorrect answers and platform disruptions
	// never retry — the former are measurement results, the latter are
	// terminal node churn. Backoff is not charged here: reachability
	// results carry outcomes, not latencies.
	Retry resolver.RetryPolicy
	// MuxInFlight, when > 1, adds a multiplexed pass to the performance
	// test: DoT sessions pipeline and DoH sessions run HTTP/2 with this
	// many queries in flight, reported as amortized per-query latency.
	MuxInFlight int

	seq  atomic.Uint64
	inst instruments
}

// UniqueName returns a fresh uniquely-prefixed probe name,
// "u<n>-<tag>.<ProbeZone>.", with tag lowercased and every other rune
// outside [a-z0-9-] made '-'. The trailing dot makes the name canonical
// for a lower-case ProbeZone, so dnswire.CanonicalName returns it as is.
// It allocates once, for the name.
func (p *Platform) UniqueName(tag string) string {
	var num [20]byte
	seq := strconv.AppendUint(num[:0], p.seq.Add(1), 10)
	var b strings.Builder
	b.Grow(1 + len(seq) + 1 + utf8.RuneCountInString(tag) + 1 + len(p.ProbeZone) + 1)
	b.WriteByte('u')
	b.Write(seq)
	b.WriteByte('-')
	for _, r := range tag {
		switch {
		case r >= 'a' && r <= 'z', r >= '0' && r <= '9', r == '-':
			b.WriteByte(byte(r))
		case r >= 'A' && r <= 'Z':
			b.WriteByte(byte(r + 32))
		default:
			b.WriteByte('-')
		}
	}
	b.WriteByte('.')
	b.WriteString(p.ProbeZone)
	if !strings.HasSuffix(p.ProbeZone, ".") {
		b.WriteByte('.')
	}
	return b.String()
}

// UsableNode applies the paper's node-selection rule: check remaining
// uptime via the platform API and discard nodes expiring soon.
func (p *Platform) UsableNode(node proxy.ExitNode) bool {
	left, err := p.Network.RemainingUptime(node.ID)
	return err == nil && left >= p.MinUptime
}

// TestReachability runs the Fig. 7 workflow for one node against targets,
// honouring ctx on every lookup.
func (p *Platform) TestReachability(ctx context.Context, node proxy.ExitNode, targets []Target) []Result {
	var out []Result
	p.VisitReachability(ctx, node, targets, func(r Result) { out = append(out, r) })
	return out
}

// lookup wraps one (target, proto) reachability test in its telemetry:
// a lookup:<resolver>:<proto> span annotated with the classification,
// bound to the node→target flow so injected faults stamp their events on
// it, plus the per-(resolver, proto, outcome) counters the telemetry
// section reports. Lookups on one node run serially, so the spans need no
// explicit keys. With telemetry off it builds no span name.
func (p *Platform) lookup(ctx context.Context, node proxy.ExitNode, tgt Target, proto resolver.Proto, remote netip.Addr) Result {
	var sp *obs.Span
	if obs.CurrentSpan(ctx) != nil {
		ctx, sp = obs.Start(ctx, "lookup:"+tgt.Name+":"+Label(proto))
	}
	release := obs.FromContext(ctx).WatchFlow(node.Addr, remote, sp)
	defer release()
	r := p.withRetry(ctx, func(ctx context.Context) Result { return p.test(ctx, node, tgt, proto) })
	sp.SetAttr("outcome", r.Outcome.String())
	sp.SetInt("attempts", int64(r.Attempts))
	if r.Recovered {
		sp.SetAttr("recovered", "true")
	}
	if r.Dropped {
		sp.SetAttr("dropped", "true")
	}
	if r.Intercepted {
		sp.SetAttr("intercepted", "true")
	}
	if r.Err != "" {
		sp.SetAttr("err", r.Err)
	}
	m := obs.Metrics(ctx)
	p.inst.lookup(m, lookupKey{tgt.Name, proto, r.Outcome}).Add(1)
	if r.Intercepted {
		p.inst.interception(m, tgt.Name).Add(1)
	}
	return r
}

// attempts is the normalized per-lookup attempt budget.
func (p *Platform) attempts() int {
	if p.Retry.Attempts < 1 {
		return 1
	}
	return p.Retry.Attempts
}

// withRetry re-runs a lookup while it yields Failed outcomes and budget
// remains. Dropped results (platform disruption) and Incorrect answers
// return immediately; see Platform.Retry. Attempts after the first run
// under a retry:<n> child span, so chaos traces show the recovery ladder.
func (p *Platform) withRetry(ctx context.Context, run func(ctx context.Context) Result) Result {
	budget := p.attempts()
	var r Result
	for attempt := 1; attempt <= budget; attempt++ {
		actx := ctx
		if attempt > 1 && obs.CurrentSpan(ctx) != nil {
			actx, _ = obs.Start(ctx, "retry:"+strconv.Itoa(attempt))
		}
		r = run(actx)
		r.Attempts = attempt
		if r.Outcome != Failed {
			r.Recovered = attempt > 1
			return r
		}
		if r.Dropped || ctx.Err() != nil {
			return r
		}
	}
	return r
}

func (p *Platform) baseResult(node proxy.ExitNode, name string, proto resolver.Proto) Result {
	return Result{
		NodeID:   node.ID,
		Country:  node.Country,
		ASN:      node.ASN,
		ASName:   node.ASName,
		Resolver: name,
		Proto:    proto,
	}
}

// classify applies the Table 4 rules to a completed transaction.
func (p *Platform) classify(m *dnswire.Message) Outcome {
	if m.Rcode != dnswire.RcodeSuccess || len(m.Answers) == 0 {
		return Incorrect
	}
	if a, ok := m.FirstA(); ok && a == p.ExpectedA {
		return Correct
	}
	return Incorrect
}

// exchange runs one uniquely-named A lookup through the unified client API
// and classifies the answer into r. The query gets an xchg:<proto> span
// charged with the session's virtual elapsed-time delta.
func (p *Platform) exchange(ctx context.Context, sess resolver.Session, tag string, r *Result) {
	q := dnswire.NewQuery(0, p.UniqueName(tag), dnswire.TypeA)
	var sp *obs.Span
	if obs.CurrentSpan(ctx) != nil {
		ctx, sp = obs.Start(ctx, "xchg:"+Label(r.Proto))
	}
	start := sess.Elapsed()
	m, err := sess.Exchange(ctx, q)
	obs.Charge(ctx, sess.Elapsed()-start)
	if err != nil {
		sp.Fail(err)
		r.Outcome, r.Err = Failed, err.Error()
		return
	}
	r.Outcome = p.classify(m)
}

// open dials proto's session to tgt through node and records its
// connection-establishment cost: a dial child span charged with the setup
// latency, plus the per-protocol setup sketch. inflight > 0 dials the
// session for multiplexed batches. Every call builds its own exit-node
// resolver.Client, so no DoQ resumption state crosses an attempt, a pass or
// a node: each DoQ session pays the full 1-RTT handshake over the
// platform's datagram relay. The resolver's default Opportunistic profile
// is the paper's, per §4.1: "to understand the real-world risks of
// opportunistic requests".
func (p *Platform) open(ctx context.Context, node proxy.ExitNode, tgt Target, proto resolver.Proto, inflight int) (resolver.Session, error) {
	c := resolver.NewVia(proxy.ExitDialer{Network: p.Network, From: p.From, NodeID: node.ID}, p.Roots,
		resolver.WithMaxInFlight(inflight))
	sess, err := c.Dial(ctx, proto, endpoints[proto](tgt))
	if err != nil {
		return nil, err
	}
	dctx, _ := obs.Start(ctx, "dial")
	obs.Charge(dctx, sess.SetupLatency())
	p.inst.setupLatency(obs.Metrics(ctx), proto).Observe(sess.SetupLatency())
	return sess, nil
}

// test runs one Fig. 7 lookup: a session to tgt's proto endpoint through
// node, one uniquely named A query, and the Table 4 classification. A
// DoT or DoQ lookup that answers correctly over a certificate that does
// not verify was re-signed in path and is flagged Intercepted (Finding
// 2.3); DoH is strict-only, so the same forgery aborts its handshake and
// the lookup fails.
func (p *Platform) test(ctx context.Context, node proxy.ExitNode, tgt Target, proto resolver.Proto) Result {
	r := p.baseResult(node, tgt.Name, proto)
	sess, err := p.open(ctx, node, tgt, proto, 0)
	if err != nil {
		r.Outcome, r.Err = Failed, err.Error()
		r.Dropped = proxy.IsPlatformDisruption(err)
		return r
	}
	defer sess.Close()
	r.Setup = sess.SetupLatency()
	v, opportunistic := sess.(resolver.Verified)
	if opportunistic {
		if chain := v.PeerCertificates(); len(chain) > 0 {
			r.IssuerCN = chain[0].Issuer.CommonName
		}
	}
	p.exchange(ctx, sess, node.ID+"-"+tgt.Name+"-"+Label(proto), &r)
	if opportunistic && v.VerifyError() != nil && r.Outcome == Correct {
		r.Intercepted = true
	}
	return r
}

// Tally aggregates results into Table 4 cells: per (resolver, proto),
// fraction correct / incorrect / failed.
type Tally struct {
	Correct, Incorrect, Failed int
}

// Total is the number of classified lookups.
func (t Tally) Total() int { return t.Correct + t.Incorrect + t.Failed }

// Rates returns the three fractions (0 when empty).
func (t Tally) Rates() (correct, incorrect, failed float64) {
	n := float64(t.Total())
	if n == 0 {
		return 0, 0, 0
	}
	return float64(t.Correct) / n, float64(t.Incorrect) / n, float64(t.Failed) / n
}
