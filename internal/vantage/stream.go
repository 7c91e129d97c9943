package vantage

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"dnsencryption.info/doe/internal/obs"
	"dnsencryption.info/doe/internal/proxy"
	"dnsencryption.info/doe/internal/resolver"
	"dnsencryption.info/doe/internal/runner"
)

// This file is the campaign API (DESIGN.md §15). CampaignStream folds each
// lookup into a mergeable accumulator (CampaignStats) through
// runner.MapReduceCtx: per-node result slices never exist, so memory stays
// O(workers) at a million vantages; node populations come from a
// NodeSource that may synthesize nodes on demand, and world state for
// generated nodes lives only while a worker holds the node.

// NodeSource abstracts the vantage population a streaming campaign sweeps.
// Acquire materializes node i (for generator-fed sources: starts its SOCKS
// service) and returns a release func that retires it again; each index is
// dispatched to exactly one worker, which is the only caller of its
// release.
type NodeSource interface {
	Len() int
	Acquire(i int) (proxy.ExitNode, func())
}

// listSource adapts a pre-built node slice (the materialized study pools).
// Acquire is a plain index: the nodes already live in the world.
type listSource struct {
	nodes []proxy.ExitNode
}

func (s listSource) Len() int { return len(s.nodes) }

func (s listSource) Acquire(i int) (proxy.ExitNode, func()) {
	return s.nodes[i], func() {}
}

// ListSource wraps an in-memory node slice as a NodeSource.
func ListSource(nodes []proxy.ExitNode) NodeSource { return listSource{nodes} }

// generatorSource adapts a generator-fed proxy network (Network.SetGenerator):
// nodes are synthesized, installed and torn down per index.
type generatorSource struct {
	net *proxy.Network
}

func (s generatorSource) Len() int { return s.net.GenCount() }

func (s generatorSource) Acquire(i int) (proxy.ExitNode, func()) {
	return s.net.Acquire(i)
}

// GeneratorSource exposes net's generated population (SetGenerator) as a
// NodeSource. World state per node exists only between Acquire and
// release, so a campaign's simulated-world footprint is O(workers).
func GeneratorSource(net *proxy.Network) NodeSource { return generatorSource{net} }

// CellKey addresses one (resolver, proto, country) reachability cell.
type CellKey struct {
	Resolver string
	Proto    resolver.Proto
	Country  string
}

// FailKey selects a (resolver, proto) pair whose failing nodes a campaign
// retains by ID — the Table 5 forensics population. Untracked pairs only
// count failures, so memory stays bounded by the tracked keys the caller
// actually probes afterwards.
type FailKey struct {
	Resolver string
	Proto    resolver.Proto
}

// NodeRef names one node by campaign index and ID. Index is the dispatch
// index, so sorting by it restores the node-order sequence a serial sweep
// would have produced.
type NodeRef struct {
	Index int
	ID    string
}

// interceptedRef carries an intercepted session with its (node index,
// intra-node ordinal) so the merged list can be sorted back into the
// deterministic order the positional merge produced.
type interceptedRef struct {
	idx, ord int
	r        Result
}

// CampaignOpts configures a campaign's accumulator.
type CampaignOpts struct {
	// TrackFailed lists the (resolver, proto) pairs whose failing node IDs
	// are retained for follow-up probes.
	TrackFailed []FailKey
}

// CampaignStats is the mergeable accumulator of one campaign.
// Every field follows the runner.Reducer fold laws — counters and cells
// sum, sketches add bucket-wise, order-bearing lists carry their node
// index and sort at finalize — so merging per-worker accumulators in any
// partition yields identical stats, which is what keeps reports
// byte-identical across worker counts.
type CampaignStats struct {
	// Lookups counts every classification produced, dropped ones included.
	Lookups int
	// Dropped counts measurements lost to platform disruption; they are
	// excluded from every tally below.
	Dropped int
	// Nodes counts vantages that passed the uptime screen and ran;
	// Skipped counts those the screen discarded.
	Nodes   int
	Skipped int
	// Cells holds per-(resolver, proto, country) outcome tallies.
	Cells map[CellKey]Tally
	// Errors is the failure taxonomy: error class → count.
	Errors map[string]int
	// Retry aggregates attempt-level outcomes: retry-recovered lookups
	// vs. hard failures that exhausted the budget.
	Retry resolver.RetryStats
	// Setup holds per-protocol session-setup latency sketches.
	Setup map[resolver.Proto]*obs.Sketch

	failed      map[FailKey][]NodeRef
	intercepted []interceptedRef
}

// NewCampaignStats returns an empty accumulator for opts.
func NewCampaignStats(opts CampaignOpts) *CampaignStats {
	s := &CampaignStats{
		Cells:  make(map[CellKey]Tally),
		Errors: make(map[string]int),
		Setup:  make(map[resolver.Proto]*obs.Sketch),
		failed: make(map[FailKey][]NodeRef),
	}
	for _, k := range opts.TrackFailed {
		s.failed[k] = nil
	}
	return s
}

// tracks reports whether (resolver, proto) failures retain node IDs.
func (s *CampaignStats) tracks(k FailKey) bool {
	_, ok := s.failed[k]
	return ok
}

// Add folds one lookup classification into the accumulator. nodeIdx is the
// node's dispatch index and ord the lookup's ordinal within the node (both
// only order the retained lists; the sums ignore them).
func (s *CampaignStats) Add(nodeIdx, ord int, r Result) {
	s.Lookups++
	if r.Dropped {
		s.Dropped++
		return
	}
	key := CellKey{Resolver: r.Resolver, Proto: r.Proto, Country: r.Country}
	t := s.Cells[key]
	switch r.Outcome {
	case Correct:
		t.Correct++
	case Incorrect:
		t.Incorrect++
	default:
		t.Failed++
	}
	s.Cells[key] = t

	a := r.Attempts
	if a < 1 {
		a = 1
	}
	s.Retry.Attempts += a
	s.Retry.Retries += a - 1
	if r.Recovered {
		s.Retry.Recovered++
	}
	if r.Outcome == Failed {
		s.Retry.HardFailures++
		s.Errors[ErrorClass(r.Err)]++
		fk := FailKey{Resolver: r.Resolver, Proto: r.Proto}
		if s.tracks(fk) {
			s.failed[fk] = append(s.failed[fk], NodeRef{Index: nodeIdx, ID: r.NodeID})
		}
	}
	if r.Setup > 0 {
		sk := s.Setup[r.Proto]
		if sk == nil {
			sk = new(obs.Sketch)
			s.Setup[r.Proto] = sk
		}
		sk.Observe(r.Setup)
	}
	if r.Intercepted {
		s.intercepted = append(s.intercepted, interceptedRef{idx: nodeIdx, ord: ord, r: r})
	}
}

// Merge folds src into s. Partition-independent: counters and cells sum,
// sketches merge bucket-wise, the index-tagged lists concatenate and are
// canonicalized by finalize's sort.
func (s *CampaignStats) Merge(src *CampaignStats) {
	s.Lookups += src.Lookups
	s.Dropped += src.Dropped
	s.Nodes += src.Nodes
	s.Skipped += src.Skipped
	for k, t := range src.Cells {
		dst := s.Cells[k]
		dst.Correct += t.Correct
		dst.Incorrect += t.Incorrect
		dst.Failed += t.Failed
		s.Cells[k] = dst
	}
	for class, n := range src.Errors {
		s.Errors[class] += n
	}
	s.Retry = s.Retry.Plus(src.Retry)
	for proto, sk := range src.Setup {
		dst := s.Setup[proto]
		if dst == nil {
			dst = new(obs.Sketch)
			s.Setup[proto] = dst
		}
		dst.Merge(sk)
	}
	for k, refs := range src.failed {
		if _, ok := s.failed[k]; !ok {
			s.failed[k] = nil
		}
		s.failed[k] = append(s.failed[k], refs...)
	}
	s.intercepted = append(s.intercepted, src.intercepted...)
}

// finalize sorts the order-bearing lists into node order — the
// canonicalizing step that makes the merged accumulator independent of how
// indices were partitioned across workers.
func (s *CampaignStats) finalize() {
	sort.Slice(s.intercepted, func(i, j int) bool {
		if s.intercepted[i].idx != s.intercepted[j].idx {
			return s.intercepted[i].idx < s.intercepted[j].idx
		}
		return s.intercepted[i].ord < s.intercepted[j].ord
	})
	for _, refs := range s.failed {
		sort.Slice(refs, func(i, j int) bool { return refs[i].Index < refs[j].Index })
	}
}

// Intercepted returns the TLS-intercepted sessions in node order, each
// with the issuer CN its forged chain presented.
func (s *CampaignStats) Intercepted() []Result {
	out := make([]Result, len(s.intercepted))
	for i, ref := range s.intercepted {
		out[i] = ref.r
	}
	return out
}

// FailedRefs returns the retained failing nodes for a tracked key, in node
// order. Nil for untracked keys.
func (s *CampaignStats) FailedRefs(k FailKey) []NodeRef {
	return s.failed[k]
}

// ByResolverProto sums the country cells into the Table 4 shape: one
// tally per (resolver, proto).
func (s *CampaignStats) ByResolverProto() map[string]map[resolver.Proto]Tally {
	out := map[string]map[resolver.Proto]Tally{}
	for k, t := range s.Cells {
		byProto, ok := out[k.Resolver]
		if !ok {
			byProto = map[resolver.Proto]Tally{}
			out[k.Resolver] = byProto
		}
		dst := byProto[k.Proto]
		dst.Correct += t.Correct
		dst.Incorrect += t.Incorrect
		dst.Failed += t.Failed
		byProto[k.Proto] = dst
	}
	return out
}

// ErrorClass maps a failure string into the campaign error taxonomy. The
// classes mirror the simulated failure modes the paper's §4.2 forensics
// distinguish: refusals and resets (in-path filtering), timeouts
// (blackholes and lossy paths), TLS failures (interception, bad chains),
// unroutable targets, and platform churn.
func ErrorClass(err string) string {
	e := strings.ToLower(err)
	switch {
	case e == "":
		return "none"
	case strings.Contains(e, "refused"):
		return "refused"
	case strings.Contains(e, "reset"):
		return "reset"
	case strings.Contains(e, "blackhole"), strings.Contains(e, "timeout"),
		strings.Contains(e, "deadline"):
		return "timeout"
	case strings.Contains(e, "tls"), strings.Contains(e, "certificate"),
		strings.Contains(e, "x509"), strings.Contains(e, "handshake"):
		return "tls"
	case strings.Contains(e, "no route"), strings.Contains(e, "unreachable"):
		return "noroute"
	case strings.Contains(e, "socks"), strings.Contains(e, "node"):
		return "platform"
	default:
		return "other"
	}
}

// VisitReachability runs the Fig. 7 workflow for one node, feeding each
// classification to visit in target order — the streaming form of
// TestReachability, with no per-node slice.
func (p *Platform) VisitReachability(ctx context.Context, node proxy.ExitNode, targets []Target, visit func(Result)) {
	for _, tgt := range targets {
		for i, endpoint := range endpoints {
			if remote := endpoint(tgt).Addr; remote.IsValid() {
				visit(p.lookup(ctx, node, tgt, resolver.Proto(i), remote))
			}
		}
	}
}

// CampaignStream runs the reachability campaign from every usable node of
// the network's materialized pool, bounded by workers, as a streaming
// fold into a CampaignStats accumulator. Once ctx is done, workers stop
// taking new nodes and in-flight lookups fail fast; the partial stats come
// back with ctx.Err().
func (p *Platform) CampaignStream(ctx context.Context, targets []Target, workers int, opts CampaignOpts) (*CampaignStats, error) {
	return p.CampaignStreamSource(ctx, ListSource(p.Network.Nodes()), targets, workers, opts)
}

// CampaignStreamSource is CampaignStream over an arbitrary NodeSource.
// The uptime screen runs inline per index (instead of pre-filtering into a
// usable slice): a node's own tests are the only consumer of its session
// budget, so the screen sees the same remaining uptimes a serial pre-pass
// would, and skipped nodes simply fold nothing.
//
//doelint:streaming
func (p *Platform) CampaignStreamSource(ctx context.Context, src NodeSource, targets []Target, workers int, opts CampaignOpts) (*CampaignStats, error) {
	red := runner.Reducer[*CampaignStats]{
		New: func() *CampaignStats { return NewCampaignStats(opts) },
		Fold: func(ctx context.Context, acc *CampaignStats, i int) {
			node, release := src.Acquire(i)
			defer release()
			if !p.UsableNode(node) {
				acc.Skipped++
				return
			}
			// Key(i) pins sibling order to the node's dispatch index, so
			// the trace is identical no matter which worker ran the node.
			ctx, sp := obs.Start(ctx, "node:"+node.ID, obs.Key(i))
			sp.SetAttr("country", node.Country)
			acc.Nodes++
			ord := 0
			p.VisitReachability(ctx, node, targets, func(r Result) {
				acc.Add(i, ord, r)
				ord++
			})
		},
		Merge: func(dst, src *CampaignStats) error { dst.Merge(src); return nil },
	}
	stats, err := runner.MapReduceCtx(obs.WithPool(ctx, "campaign"), workers, src.Len(), red)
	stats.finalize()
	return stats, err
}

// Render writes the campaign summary: deterministic, fully sorted, and
// computed from the accumulator alone — the report of the million-vantage
// scale campaigns, byte-identical at any worker count.
func (s *CampaignStats) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes measured: %d (skipped %d below min uptime)\n", s.Nodes, s.Skipped)
	fmt.Fprintf(&b, "lookups: %d (%d dropped to platform churn)\n", s.Lookups, s.Dropped)

	byRP := s.ByResolverProto()
	resolvers := make([]string, 0, len(byRP))
	for r := range byRP {
		resolvers = append(resolvers, r)
	}
	sort.Strings(resolvers)
	fmt.Fprintf(&b, "\nreachability (correct / incorrect / failed):\n")
	for _, res := range resolvers {
		for _, pr := range byLabel(byRP[res]) {
			t := byRP[res][pr]
			c, i, f := t.Rates()
			fmt.Fprintf(&b, "  %-12s %-4s %8d lookups  %6.2f%% / %5.2f%% / %5.2f%%\n",
				res, Label(pr), t.Total(), c*100, i*100, f*100)
		}
	}

	countries := map[string]Tally{}
	for k, t := range s.Cells {
		dst := countries[k.Country]
		dst.Correct += t.Correct
		dst.Incorrect += t.Incorrect
		dst.Failed += t.Failed
		countries[k.Country] = dst
	}
	ccs := make([]string, 0, len(countries))
	for cc := range countries {
		ccs = append(ccs, cc)
	}
	// Failure-heavy countries first (the §4.2 view), ties by code.
	sort.Slice(ccs, func(i, j int) bool {
		ti, tj := countries[ccs[i]], countries[ccs[j]]
		if ti.Failed != tj.Failed {
			return ti.Failed > tj.Failed
		}
		return ccs[i] < ccs[j]
	})
	if len(ccs) > 0 {
		fmt.Fprintf(&b, "\ntop countries by failed lookups:\n")
		max := len(ccs)
		if max > 15 {
			max = 15
		}
		for _, cc := range ccs[:max] {
			t := countries[cc]
			_, _, f := t.Rates()
			fmt.Fprintf(&b, "  %s %8d lookups  %6.2f%% failed\n", cc, t.Total(), f*100)
		}
	}

	if len(s.Errors) > 0 {
		classes := make([]string, 0, len(s.Errors))
		for c := range s.Errors {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		fmt.Fprintf(&b, "\nfailure taxonomy:\n")
		for _, c := range classes {
			fmt.Fprintf(&b, "  %-10s %d\n", c, s.Errors[c])
		}
	}

	if len(s.Setup) > 0 {
		fmt.Fprintf(&b, "\nsession setup latency (p50 / p90 / p99):\n")
		for _, pr := range byLabel(s.Setup) {
			sk := s.Setup[pr]
			fmt.Fprintf(&b, "  %-4s %s / %s / %s over %d sessions\n", Label(pr),
				renderMS(sk.Quantile(0.50)), renderMS(sk.Quantile(0.90)),
				renderMS(sk.Quantile(0.99)), sk.Count())
		}
	}

	fmt.Fprintf(&b, "\nretries: %d attempts, %d retries, %d recovered, %d hard failures\n",
		s.Retry.Attempts, s.Retry.Retries, s.Retry.Recovered, s.Retry.HardFailures)
	if n := len(s.intercepted); n > 0 {
		fmt.Fprintf(&b, "tls-intercepted sessions: %d\n", n)
	}
	return b.String()
}

// byLabel returns m's protocols in the order of their labels.
func byLabel[V any](m map[resolver.Proto]V) []resolver.Proto {
	protos := make([]resolver.Proto, 0, len(m))
	for pr := range m {
		protos = append(protos, pr)
	}
	sort.Slice(protos, func(i, j int) bool { return Label(protos[i]) < Label(protos[j]) })
	return protos
}

func renderMS(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
}
