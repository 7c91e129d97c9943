package scanner

import (
	"context"
	"net/netip"
	"sort"
	"strings"

	"dnsencryption.info/doe/internal/certs"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/doh"
	"dnsencryption.info/doe/internal/netsim"
	"dnsencryption.info/doe/internal/resolver"
)

// KnownDoHPaths are the common endpoint templates §3.1 uses to spot DoH
// services in the URL corpus ("the DoH RFC and large resolvers have
// specified several common path templates").
var KnownDoHPaths = []string{"/dns-query", "/resolve", "/experimental"}

// DoHCandidate is a URL from the corpus that matches a known DoH path.
type DoHCandidate struct {
	Host string
	Path string
}

// DoHResolver is a verified working DoH service.
type DoHResolver struct {
	Template doh.Template
	Addr     netip.Addr
	// InKnownList marks resolvers that already appear on the public
	// curated list; the rest are the "beyond the list" discoveries.
	InKnownList bool
}

// InspectCorpus filters a URL corpus down to de-duplicated DoH candidates.
// For ethics the corpus carries no URL parameters or user data — matching
// is purely on hostname + path.
func InspectCorpus(urls []string) []DoHCandidate {
	seen := map[string]bool{}
	var out []DoHCandidate
	for _, u := range urls {
		host, path, ok := splitURL(u)
		if !ok {
			continue
		}
		match := false
		for _, p := range KnownDoHPaths {
			if path == p {
				match = true
				break
			}
		}
		if !match {
			continue
		}
		key := host + path
		if seen[key] {
			continue
		}
		seen[key] = true
		out = append(out, DoHCandidate{Host: host, Path: path})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Host != out[j].Host {
			return out[i].Host < out[j].Host
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// splitURL extracts host and path from an https URL without parsing
// query strings (the corpus strips them).
func splitURL(u string) (host, path string, ok bool) {
	const prefix = "https://"
	if !strings.HasPrefix(u, prefix) {
		return "", "", false
	}
	rest := u[len(prefix):]
	slash := strings.IndexByte(rest, '/')
	if slash < 0 {
		return rest, "/", true
	}
	host = rest[:slash]
	path = rest[slash:]
	if q := strings.IndexByte(path, '?'); q >= 0 {
		path = path[:q]
	}
	return host, path, host != ""
}

// DoHDiscovery verifies candidates by issuing real DoH queries, the manual
// availability check of §3.2 ("we manually check its availability by adding
// DoH query parameters").
type DoHDiscovery struct {
	World *netsim.World
	From  netip.Addr
	Roots *certs.TrustStore
	// Resolve maps candidate hostnames to addresses (bootstrap results).
	Resolve map[string]netip.Addr
	// ProbeDomain is the scanners' registered domain.
	ProbeDomain string
	// KnownList is the public curated resolver list (e.g. the curl wiki),
	// as template strings.
	KnownList []string
	// Attempts is the per-candidate probe budget. The availability check is
	// a single pass (unlike the repeated DoT scans, which get another shot
	// at every host next round), so on lossy paths a transport failure is
	// retried up to Attempts times. Zero or one means a single attempt.
	Attempts int
}

// Verify probes each candidate and returns the working DoH resolvers. Each
// attempt opens a session with resolver.Client.Dial, with no real-time
// guard beyond ctx's deadline, as the scanner's DoT probes, and sends one
// query on it. Transport failures are retried up to Attempts; a DNS
// answer, working or not, ends the candidate's probing.
func (d *DoHDiscovery) Verify(ctx context.Context, candidates []DoHCandidate) []DoHResolver {
	known := map[string]bool{}
	for _, k := range d.KnownList {
		if t, err := doh.ParseTemplate(k); err == nil {
			known[t.Host+t.Path] = true
		}
	}
	c := resolver.New(d.World, d.From, d.Roots)
	var out []DoHResolver
	for _, cand := range candidates {
		addr, ok := d.Resolve[cand.Host]
		if !ok {
			continue
		}
		ep := resolver.Endpoint{Addr: addr, Template: doh.Template{Host: cand.Host, Path: cand.Path}}
		var resp *dnswire.Message
		var err error
		for attempt := 0; attempt < max(1, d.Attempts); attempt++ {
			if resp, err = d.query(ctx, c, ep); err == nil {
				break // retry transport failures, not DNS-level answers
			}
		}
		if err != nil || resp.Rcode != dnswire.RcodeSuccess || len(resp.Answers) == 0 {
			continue
		}
		out = append(out, DoHResolver{
			Template:    ep.Template,
			Addr:        addr,
			InKnownList: known[cand.Host+cand.Path],
		})
	}
	return out
}

// query makes one availability attempt: dial a fresh session to ep, ask for
// the probe domain, close.
func (d *DoHDiscovery) query(ctx context.Context, c *resolver.Client, ep resolver.Endpoint) (*dnswire.Message, error) {
	sess, err := c.Dial(ctx, resolver.ProtoDoH, ep)
	if err != nil {
		return nil, err
	}
	defer sess.Close()
	return sess.Exchange(ctx, dnswire.NewQuery(0, d.ProbeDomain, dnswire.TypeA))
}
