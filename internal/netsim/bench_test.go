package netsim

import (
	"net/netip"
	"testing"

	"dnsencryption.info/doe/internal/geo"
)

// BenchmarkCensorDecide measures the national censor's verdict, which runs
// on every Dial and Exchange once the censored platform is in the world.
// The world's geography is the default study's size (910 /24s, 643 /32s);
// the censor is the study's: CN clients, one blocked resolver, blackholed.
// Dials alternate censored and uncensored clients, to blocked and open
// destinations.
func BenchmarkCensorDecide(b *testing.B) {
	w := NewWorld(1)
	for i := 0; i < 910; i++ {
		cc := "US"
		if i%2 == 1 {
			cc = "CN"
		}
		w.Geo.Register(netip.PrefixFrom(netip.AddrFrom4([4]byte{12, byte(i >> 8), byte(i), 0}), 24), geo.Location{Country: cc, ASN: 64512 + i})
	}
	for i := 0; i < 643; i++ {
		w.Geo.Register(netip.PrefixFrom(netip.AddrFrom4([4]byte{100, 64, byte(i >> 8), byte(i)}), 32), geo.Location{Country: "IE", ASN: 64500})
	}
	blocked := netip.MustParseAddr("8.8.8.8")
	censor := &Censor{
		Countries: map[string]bool{"CN": true},
		BlockIPs:  map[netip.Addr]bool{blocked: true},
		Blackhole: true,
	}
	us, cn := netip.MustParseAddr("12.0.0.1"), netip.MustParseAddr("12.0.1.1")
	open := netip.MustParseAddr("1.1.1.1")
	cases := []struct {
		from, to netip.Addr
		want     Action
	}{
		{us, blocked, ActNext},
		{cn, blocked, ActBlackhole},
		{us, open, ActNext},
		{cn, open, ActNext},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := cases[i%len(cases)]
		if v := censor.Decide(w, c.from, c.to, 443, Stream); v.Action != c.want {
			b.Fatalf("Decide(%v -> %v) = %v, want %v", c.from, c.to, v.Action, c.want)
		}
	}
}
