package proxy

import (
	"fmt"
	"io"
	"net/netip"
	"testing"
	"time"
)

// genNode synthesizes a deterministic test population on 12.0.x.y.
func genNode(i int) ExitNode {
	return ExitNode{
		ID:       fmt.Sprintf("v-%08d-US", i),
		Addr:     netip.AddrFrom4([4]byte{12, 0, byte(i >> 8), byte(i)}),
		Country:  "US",
		ASN:      30000 + i,
		ASName:   "Gen ISP",
		Lifetime: time.Hour,
	}
}

func TestGeneratedNodeTunnels(t *testing.T) {
	w := newWorld()
	echoTarget(w, 7)
	n := NewNetwork(w, "genrack", superIP)
	defer n.Shutdown()
	n.SetGenerator(1000, genNode)

	if got := n.GenCount(); got != 1000 {
		t.Fatalf("GenCount = %d", got)
	}
	node, release := n.Acquire(42)
	defer release()
	if node.ID != "v-00000042-US" {
		t.Fatalf("acquired node %q", node.ID)
	}
	// The acquired node's lifetime must be visible to the platform API...
	if up, err := n.RemainingUptime(node.ID); err != nil || up != time.Hour {
		t.Fatalf("RemainingUptime = %v, %v", up, err)
	}
	// ...and the super proxy must tunnel through it by username.
	conn, err := n.Dial(measureIP, node.ID, targetIP, 7)
	if err != nil {
		t.Fatalf("Dial via generated node: %v", err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("ping")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 4)
	if _, err := io.ReadFull(conn, buf); err != nil || string(buf) != "ping" {
		t.Fatalf("echo through generated node: %q, %v", buf, err)
	}
	// Tunneling consumed session lifetime on the acquired node.
	if up, _ := n.RemainingUptime(node.ID); up >= time.Hour {
		t.Fatalf("lifetime not consumed: %v", up)
	}
}

// TestAcquireReleaseKeepsWorldSmall pins the lazy-world invariant: world
// state (listeners, ledger entries) scales with acquired nodes, and release
// returns the world to its baseline — O(workers), never O(population).
func TestAcquireReleaseKeepsWorldSmall(t *testing.T) {
	w := newWorld()
	n := NewNetwork(w, "genrack", superIP)
	defer n.Shutdown()
	n.SetGenerator(1_000_000, genNode)

	baseline := w.NumListeners()
	const held = 8
	releases := make([]func(), 0, held)
	for i := 0; i < held; i++ {
		_, rel := n.Acquire(i * 1000)
		releases = append(releases, rel)
	}
	if got := w.NumListeners(); got != baseline+held {
		t.Fatalf("listeners while holding %d nodes = %d, want %d", held, got, baseline+held)
	}
	if got := n.ActiveCount(); got != held {
		t.Fatalf("ActiveCount = %d, want %d", got, held)
	}
	for _, rel := range releases {
		rel()
	}
	if got := w.NumListeners(); got != baseline {
		t.Fatalf("listeners after release = %d, want baseline %d", got, baseline)
	}
	if got := n.ActiveCount(); got != 0 {
		t.Fatalf("ActiveCount after release = %d", got)
	}
	// A released node is gone: the platform no longer knows the ID.
	node := genNode(0)
	if _, err := n.RemainingUptime(node.ID); err == nil {
		t.Fatal("released node still visible to RemainingUptime")
	}
	if _, err := n.Dial(measureIP, node.ID, targetIP, 7); err == nil {
		t.Fatal("released node still dialable")
	}
}

// TestStaleReleaseKeepsTheNewLease: a release acts once. Called again,
// after the same index was acquired anew, it leaves the new lease's ledger
// entry and SOCKS service in place.
func TestStaleReleaseKeepsTheNewLease(t *testing.T) {
	w := newWorld()
	n := NewNetwork(w, "genrack", superIP)
	defer n.Shutdown()
	n.SetGenerator(10, genNode)

	baseline := w.NumListeners()
	_, first := n.Acquire(3)
	first()
	node, second := n.Acquire(3)
	defer second()
	first()
	if got := n.ActiveCount(); got != 1 {
		t.Fatalf("ActiveCount = %d after a stale release, want 1", got)
	}
	if got := w.NumListeners(); got != baseline+1 {
		t.Fatalf("listeners = %d after a stale release, want %d", got, baseline+1)
	}
	if _, err := n.RemainingUptime(node.ID); err != nil {
		t.Fatalf("the new lease's node is gone after a stale release: %v", err)
	}
}
