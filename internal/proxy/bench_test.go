package proxy

import "testing"

// BenchmarkTunnel measures one proxied tunnel's life: dial through the
// super proxy and an exit node, echo one DNS-sized message, close. It is
// the relay path's layer benchmark; the curated SimTunnelRoundTrip reuses
// one open tunnel, so it never pays the per-relay cost.
func BenchmarkTunnel(b *testing.B) {
	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)
	n.PerDialCost = 0
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		echoOnce(b, n)
	}
}
