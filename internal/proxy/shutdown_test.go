package proxy

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"dnsencryption.info/doe/internal/netsim"
)

// waitGoroutines polls until the goroutine count drops to target or the
// window closes, returning the final count.
func waitGoroutines(target int, window time.Duration) int {
	deadline := time.Now().Add(window)
	for time.Now().Before(deadline) {
		if n := runtime.NumGoroutine(); n <= target {
			return n
		}
		time.Sleep(10 * time.Millisecond) // real-time settle poll in a leak test
	}
	return runtime.NumGoroutine()
}

func TestShutdownStopsNewDials(t *testing.T) {
	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)

	conn, err := n.Dial(measureIP, "us-1", targetIP, 80)
	if err != nil {
		t.Fatal(err)
	}
	n.Shutdown()
	// The established tunnel keeps working.
	conn.SetDeadline(time.Now().Add(time.Second))
	if _, err := conn.Write([]byte("x")); err != nil {
		t.Fatalf("write on live tunnel after shutdown: %v", err)
	}
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err != nil {
		t.Fatalf("read on live tunnel after shutdown: %v", err)
	}
	conn.Close()

	// New dials hit the closed super proxy.
	if _, err := n.Dial(measureIP, "us-1", targetIP, 80); !errors.Is(err, netsim.ErrRefused) {
		t.Fatalf("dial after shutdown err = %v, want ErrRefused", err)
	}
}

// TestPlatformLifecycleLeaksNoGoroutines builds a platform, pushes traffic
// through both exit nodes, shuts it down, and asserts the goroutine count
// returns to its starting point: relay copiers and per-connection handlers
// must all unwind.
func TestPlatformLifecycleLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	w := newWorld()
	echoTarget(w, 80)
	n := newNetwork(w)
	for i := 0; i < 10; i++ {
		for _, node := range []string{"us-1", "id-1"} {
			conn, err := n.Dial(measureIP, node, targetIP, 80)
			if err != nil {
				t.Fatalf("dial %s: %v", node, err)
			}
			conn.SetDeadline(time.Now().Add(time.Second))
			conn.Write([]byte("ping")) //nolint:errcheck
			conn.Read(make([]byte, 4)) //nolint:errcheck
			conn.Close()
		}
	}
	n.Shutdown()
	w.CloseService(targetIP, 80)

	if after := waitGoroutines(before, 2*time.Second); after > before {
		t.Errorf("goroutines: %d before platform lifecycle, %d after", before, after)
	}
}
