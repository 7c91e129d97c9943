package proxy

import (
	"errors"
	"io"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/bufpool"
	"dnsencryption.info/doe/internal/dnswire"
	"dnsencryption.info/doe/internal/geo"
	"dnsencryption.info/doe/internal/netsim"
)

var (
	measureIP = netip.MustParseAddr("10.0.0.1") // measurement client
	superIP   = netip.MustParseAddr("172.16.0.1")
	exitUS    = netip.MustParseAddr("10.10.0.5")
	exitID    = netip.MustParseAddr("10.20.0.5") // Indonesia
	targetIP  = netip.MustParseAddr("192.0.2.80")
)

func newWorld() *netsim.World {
	w := netsim.NewWorld(21)
	w.JitterFrac = 0
	w.Geo.Register(netip.MustParsePrefix("10.0.0.0/16"), geo.Location{Country: "US", ASN: 1, ASName: "Lab"})
	w.Geo.Register(netip.MustParsePrefix("172.16.0.0/16"), geo.Location{Country: "US", ASN: 2, ASName: "Cloud"})
	w.Geo.Register(netip.MustParsePrefix("10.10.0.0/16"), geo.Location{Country: "US", ASN: 3, ASName: "US ISP"})
	w.Geo.Register(netip.MustParsePrefix("10.20.0.0/16"), geo.Location{Country: "ID", ASN: 4, ASName: "ID ISP"})
	w.Geo.Register(netip.MustParsePrefix("192.0.2.0/24"), geo.Location{Country: "NL", ASN: 5, ASName: "Host"})
	return w
}

// echoTarget registers a byte-echo service at targetIP:port.
func echoTarget(w *netsim.World, port uint16) {
	w.RegisterStream(targetIP, port, func(conn *netsim.Conn) {
		defer conn.Close()
		io.Copy(conn, conn) //nolint:errcheck
	})
}

func newNetwork(w *netsim.World) *Network {
	n := NewNetwork(w, "testrack", superIP)
	n.AddNode(ExitNode{ID: "us-1", Addr: exitUS, Country: "US", ASN: 3, ASName: "US ISP", Lifetime: time.Hour})
	n.AddNode(ExitNode{ID: "id-1", Addr: exitID, Country: "ID", ASN: 4, ASName: "ID ISP", Lifetime: time.Hour})
	return n
}

func TestTunnelEcho(t *testing.T) {
	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)
	conn, err := n.Dial(measureIP, "us-1", targetIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 5)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatal(err)
	}
	if string(buf) != "hello" {
		t.Errorf("echo = %q", buf)
	}
}

func TestLatencyComposesAcrossHops(t *testing.T) {
	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)

	measure := func(nodeID string) time.Duration {
		conn, err := n.Dial(measureIP, nodeID, targetIP, 80)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		before := conn.Elapsed()
		conn.Write([]byte("x")) //nolint:errcheck
		buf := make([]byte, 1)
		io.ReadFull(conn, buf) //nolint:errcheck
		return conn.Elapsed() - before
	}

	viaUS := measure("us-1")
	viaID := measure("id-1")
	if viaUS <= 0 || viaID <= 0 {
		t.Fatalf("latencies not accounted: US=%v ID=%v", viaUS, viaID)
	}
	// The Indonesian exit sits farther from both super proxy and target,
	// and has a slower access network: round trips must cost more.
	if viaID <= viaUS {
		t.Errorf("via-ID latency %v not above via-US %v", viaID, viaUS)
	}
}

// TestRelayForwardsWholeSegments: a 40,000-byte write crosses the super
// proxy's and the exit node's relays as one segment each way, where a
// 32 KiB copy buffer would split it into 32,768 + 7,232 bytes.
func TestRelayForwardsWholeSegments(t *testing.T) {
	w := newWorld()
	got := make(chan int, 1)
	w.RegisterStream(targetIP, 80, func(conn *netsim.Conn) {
		defer conn.Close()
		buf := make([]byte, 64*1024)
		n, err := conn.Read(buf)
		got <- n
		if err == nil {
			conn.Write(buf[:n]) //nolint:errcheck
		}
	})
	n := newNetwork(w)
	conn, err := n.Dial(measureIP, "us-1", targetIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const size = 40000
	if _, err := conn.Write(make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	if n := <-got; n != size {
		t.Errorf("target's first read = %d bytes, want %d", n, size)
	}
	if n, err := conn.Read(make([]byte, 64*1024)); n != size || err != nil {
		t.Errorf("client's first read = (%d, %v), want (%d, nil)", n, err, size)
	}
}

// TestTunnelAllocatesNoCopyBuffer: a tunnel's life allocates no relay copy
// buffer, and little else. Three 32 KiB buffers (one per relay, one in the
// echo target's io.Copy) would cost 96 KiB per tunnel. A tunnel makes 14
// to 15 objects in 2.7 to 2.9 KB: three 768-byte conn pairs and the
// goroutines that serve them, the two relays' writers and goroutines, the
// dial's watchdog timer and credentials, the username, and echoOnce's
// message, which io.ReadFull takes as an interface. When each relay also
// made a channel and each pair took the 896-byte size class, a tunnel
// made 16 to 17 objects in 3.4 KB. The counts leave out bufpool's
// refills, two objects and refillBytes per miss, which depend on GC
// timing and, under the race detector, on sync.Pool dropping Puts on
// purpose. The slack, 8 objects and 300 B, is for the runtime's own
// objects, such as goroutines started while none had yet exited.
func TestTunnelAllocatesNoCopyBuffer(t *testing.T) {
	const tunnels, bound, objects = 200, 2_900 + 300, 15 + 8
	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)
	n.PerDialCost = 0
	idle := runtime.NumGoroutine()
	// settle waits for the last tunnel's relays and handlers to exit, so
	// that each side of the measurement sees whole tunnels only.
	settle := func() runtime.MemStats {
		if got := waitGoroutines(idle, 2*time.Second); got > idle {
			t.Fatalf("%d goroutines after closing tunnels, want %d", got, idle)
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms
	}
	for range 20 {
		echoOnce(t, n)
	}
	before, poolBefore := settle(), bufpool.Snapshot()
	for range tunnels {
		echoOnce(t, n)
	}
	after, poolAfter := settle(), bufpool.Snapshot()
	if gets, small := poolAfter.Gets-poolBefore.Gets, poolAfter.PerClass[0].Gets-poolBefore.PerClass[0].Gets; gets != small {
		t.Fatalf("%d of %d pool Gets were above the %d-byte class, which refillBytes assumes", gets-small, gets, poolAfter.PerClass[0].Size)
	}
	misses := poolAfter.Misses - poolBefore.Misses
	per := (after.TotalAlloc - before.TotalAlloc - refillBytes*misses) / tunnels
	mallocs := float64(after.Mallocs-before.Mallocs-2*misses) / tunnels
	t.Logf("%d B and %.2f objects besides pool refills allocated per tunnel", per, mallocs)
	if per > bound {
		t.Errorf("%d B besides pool refills allocated per tunnel, want at most %d", per, bound)
	}
	if mallocs > objects {
		t.Errorf("%.2f objects besides pool refills allocated per tunnel, want at most %d", mallocs, objects)
	}
}

// refillBytes is what one bufpool miss allocates for a segment under 512
// bytes: a 512-byte class buffer and the 24-byte slice header its pointer
// holds.
const refillBytes = 512 + 24

// echoOnce opens a tunnel through the super proxy and exit node us-1 to
// the echo target on port 80, echoes one 64-byte message, and closes it.
func echoOnce(tb testing.TB, n *Network) {
	tb.Helper()
	conn, err := n.Dial(measureIP, "us-1", targetIP, 80)
	if err != nil {
		tb.Fatal(err)
	}
	defer conn.Close()
	var msg [64]byte
	if _, err := conn.Write(msg[:]); err != nil {
		tb.Fatal(err)
	}
	if _, err := io.ReadFull(conn, msg[:]); err != nil {
		tb.Fatal(err)
	}
}

func TestConnectRefusedTargetReported(t *testing.T) {
	w := newWorld()
	n := newNetwork(w)
	_, err := n.Dial(measureIP, "us-1", targetIP, 9999)
	if !errors.Is(err, ErrConnectFailed) {
		t.Errorf("err = %v, want ErrConnectFailed", err)
	}
}

func TestNodeSelectionByUsername(t *testing.T) {
	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)
	if _, err := n.Dial(measureIP, "nope", targetIP, 80); err == nil {
		t.Error("dial via unknown node succeeded")
	}
}

func TestLifetimeExhaustion(t *testing.T) {
	w := newWorld()
	echoTarget(w, 80)
	n := NewNetwork(w, "short", superIP)
	n.PerDialCost = 40 * time.Minute
	n.AddNode(ExitNode{ID: "brief", Addr: exitUS, Country: "US", Lifetime: time.Hour})

	if _, err := n.RemainingUptime("brief"); err != nil {
		t.Fatal(err)
	}
	c1, err := n.Dial(measureIP, "brief", targetIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	c1.Close()
	left, err := n.RemainingUptime("brief")
	if err != nil || left != 20*time.Minute {
		t.Errorf("remaining = %v, %v; want 20m", left, err)
	}
	c2, err := n.Dial(measureIP, "brief", targetIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	c2.Close()
	if _, err := n.Dial(measureIP, "brief", targetIP, 80); err == nil {
		t.Error("dial via exhausted node succeeded")
	}
	if _, err := n.RemainingUptime("missing"); !errors.Is(err, ErrNoSuchNode) {
		t.Errorf("err = %v, want ErrNoSuchNode", err)
	}
}

func TestPoliciesApplyAtExitNode(t *testing.T) {
	w := newWorld()
	echoTarget(w, 443)
	// Censor blocks the target for clients in ID only.
	w.AddPolicy(&netsim.Censor{
		Countries: map[string]bool{"ID": true},
		BlockIPs:  map[netip.Addr]bool{targetIP: true},
	})
	n := newNetwork(w)

	if conn, err := n.Dial(measureIP, "us-1", targetIP, 443); err != nil {
		t.Errorf("US exit should pass: %v", err)
	} else {
		conn.Close()
	}
	if _, err := n.Dial(measureIP, "id-1", targetIP, 443); !errors.Is(err, ErrConnectFailed) {
		t.Errorf("ID exit err = %v, want ErrConnectFailed (censored)", err)
	}
}

func TestDNSOverTunnel(t *testing.T) {
	w := newWorld()
	fixed := netip.MustParseAddr("203.0.113.3")
	w.RegisterStream(targetIP, 53, func(conn *netsim.Conn) {
		defer conn.Close()
		for {
			raw, err := dnswire.ReadTCP(conn)
			if err != nil {
				return
			}
			m, err := dnswire.Unpack(raw)
			if err != nil {
				return
			}
			resp := m.Reply()
			resp.AddAnswer(m.Question1().Name, 60, dnswire.A{Addr: fixed})
			packed, _ := resp.Pack()
			if err := dnswire.WriteTCP(conn, packed); err != nil {
				return
			}
		}
	})
	n := newNetwork(w)
	conn, err := n.Dial(measureIP, "us-1", targetIP, 53)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	q := dnswire.NewQuery(77, "proxied.example.org", dnswire.TypeA)
	framed, _ := dnswire.PackTCP(q)
	if _, err := conn.Write(framed); err != nil {
		t.Fatal(err)
	}
	raw, err := dnswire.ReadTCP(conn)
	if err != nil {
		t.Fatal(err)
	}
	m, err := dnswire.Unpack(raw)
	if err != nil {
		t.Fatal(err)
	}
	if a, ok := m.Answers[0].Data.(dnswire.A); !ok || a.Addr != fixed {
		t.Errorf("answer = %v", m.Answers)
	}
}

func TestNodesListing(t *testing.T) {
	w := newWorld()
	n := newNetwork(w)
	nodes := n.Nodes()
	if len(nodes) != 2 || nodes[0].ID != "id-1" || nodes[1].ID != "us-1" {
		t.Errorf("nodes = %+v", nodes)
	}
}
