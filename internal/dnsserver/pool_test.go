package dnsserver

import (
	"net/netip"
	"runtime"
	"strconv"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/dnswire"
)

// onePool runs the rest of a test with one P, so every sync.Pool Get and
// Put meets the same per-P cache: a goroutine that moved to another P
// would find its Puts out of reach.
func onePool(t *testing.T) {
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
}

// TestResolverCacheSurvivesPooledDecodes: a miss decodes its upstream reply
// into a pooled Message and caches the answers. Later misses decode into
// the same pooled Message, so an entry that kept the pooled answers rather
// than a copy would start answering with a later name's record.
func TestResolverCacheSurvivesPooledDecodes(t *testing.T) {
	onePool(t)
	w := newWorld()
	r := setupRecursive(t, w)
	names := make([]string, 20)
	for i := range names {
		names[i] = "n" + strconv.Itoa(i) + ".measure.example.org."
		r.ServeDNS(clientIP, dnswire.NewQuery(1, names[i], dnswire.TypeA))
	}
	for _, name := range names {
		resp, proc := r.ServeDNS(clientIP, dnswire.NewQuery(2, name, dnswire.TypeA))
		if proc != r.BaseProc {
			t.Fatalf("repeat query for %s took %v, want the cache hit's %v", name, proc, r.BaseProc)
		}
		if len(resp.Answers) != 1 || resp.Answers[0].Name != name {
			t.Errorf("cached entry for %s answers %v", name, resp.Answers)
		}
	}
}

// TestDatagramHandlerReusesRequest pins the Handler contract on the
// datagram front-end: req lives only for the call, because the next query
// decodes into the same pooled Message. The race detector drops a quarter
// of sync.Pool's Puts on purpose, so a kept request may never come back:
// the test looks for the reuse over up to 100 pairs of calls.
func TestDatagramHandlerReusesRequest(t *testing.T) {
	onePool(t)
	var kept *dnswire.Message
	h := DatagramHandler(HandlerFunc(func(_ netip.Addr, req *dnswire.Message) (*dnswire.Message, time.Duration) {
		kept = req
		return req.Reply(), 0
	}))
	query := func(name string) {
		packed, err := dnswire.NewQuery(1, name, dnswire.TypeA).Pack()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := h(clientIP, packed); err != nil {
			t.Fatal(err)
		}
	}
	for i := range 100 {
		name := "kept" + strconv.Itoa(i) + ".example."
		query(name)
		held := kept
		query("next.example.")
		if held.Question1().Name != name {
			return
		}
	}
	t.Error("a kept request still holds its query after the next call, 100 times: each call decoded into a fresh Message")
}

// BenchmarkResolverMiss measures one cache-missing query through
// Resolver.ServeDNS to a wildcard zone behind DatagramHandler: the reply
// skeleton, the upstream query, the zone's decode and answer, and the
// decode of its reply. The cache is capped at one entry, as a streaming
// campaign caps it, so every query misses and none is inserted.
func BenchmarkResolverMiss(b *testing.B) {
	w := newWorld()
	z := NewZone("measure.example.org")
	z.WildcardA = netip.MustParseAddr("203.0.113.1")
	w.RegisterDatagram(authIP, 53, DatagramHandler(z))
	r := NewResolver(w, resolverIP, map[string]netip.Addr{"measure.example.org": authIP})
	r.CacheLimit = 1
	r.ServeDNS(clientIP, dnswire.NewQuery(1, "warm.measure.example.org", dnswire.TypeA))
	queries := make([]*dnswire.Message, 64)
	for i := range queries {
		queries[i] = dnswire.NewQuery(uint16(i), "q"+strconv.Itoa(i)+".measure.example.org", dnswire.TypeA)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, _ := r.ServeDNS(clientIP, queries[i%len(queries)])
		if len(resp.Answers) != 1 {
			b.Fatalf("miss answered %v", resp.Answers)
		}
	}
}
