package core

import (
	"context"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dnsencryption.info/doe/internal/doq"
	"dnsencryption.info/doe/internal/workload"
)

// scaleReport runs one campaign at the given worker count and returns its
// rendered report.
func scaleReport(t *testing.T, nodes, workers int, allProtos bool) string {
	t.Helper()
	cfg := DefaultScaleConfig()
	cfg.Nodes = nodes
	cfg.Workers = workers
	cfg.AllProtos = allProtos
	c, err := NewScaleCampaign(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	stats, err := c.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Network.ActiveCount(); got != 0 {
		t.Errorf("campaign leaked %d acquired nodes", got)
	}
	return c.Report(stats)
}

func TestScaleCampaignByteIdenticalAcrossWorkerCounts(t *testing.T) {
	const nodes = 3000
	base := scaleReport(t, nodes, 1, false)
	if !strings.Contains(base, "3000 vantages") {
		t.Fatalf("report header:\n%s", base)
	}
	// The report must show real measurement signal, not a degenerate world.
	if !strings.Contains(base, "cloudflare") || !strings.Contains(base, "dns") {
		t.Fatalf("report missing reachability rows:\n%s", base)
	}
	for _, workers := range []int{4, 8} {
		if got := scaleReport(t, nodes, workers, false); got != base {
			t.Errorf("workers=%d report differs from serial:\n--- serial ---\n%s\n--- workers=%d ---\n%s",
				workers, base, workers, got)
		}
	}
}

func TestScaleCampaignAllProtosByteIdentical(t *testing.T) {
	const nodes = 400
	base := scaleReport(t, nodes, 1, true)
	for _, proto := range []string{"dot", "doh", "doq"} {
		if !strings.Contains(base, proto) {
			t.Errorf("all-protos report missing %s rows:\n%s", proto, base)
		}
	}
	if got := scaleReport(t, nodes, 8, true); got != base {
		t.Errorf("all-protos workers=8 report differs:\n--- serial ---\n%s\n--- parallel ---\n%s", base, got)
	}
}

// campaignAllocCeiling bounds the bytes TestScaleCampaignBoundsWorldState's
// campaign may allocate per vantage once built. It lies halfway between
// 4,891 bytes, when each of a vantage's three conn pairs took the 768-byte
// size class, the DNS servers decoded every request and upstream reply
// into a fresh Message with a second copy of each answer's owner name, a
// node lease copied its node twice and a probe name was copied to add its
// trailing dot, and 3,959 bytes once the pairs fit the 640-byte class and
// none of the rest held (go1.24.0, linux/amd64). The race detector makes
// sync.Pool drop a quarter of all Puts, so pooled buffers, pack states and
// Messages are remade more often: campaignRaceAllocCeiling lies halfway
// between the same two builds' readings under it, 8,681 and 7,837 bytes.
const (
	campaignAllocCeiling     = 4_425
	campaignRaceAllocCeiling = 8_259
)

// doqConnCap is the DoQ server's connection-table cap (doq.maxConns).
const doqConnCap = 1024

// doqConns counts the connections srv's table holds. The table is
// unexported and only a test reads its size, so it is read by reflection.
func doqConns(srv *doq.Server) int {
	return reflect.ValueOf(srv).Elem().FieldByName("conns").Len()
}

// TestScaleCampaignBoundsWorldState pins the constant-memory levers: capped
// resolver cache, disabled zone query log, empty active ledger after the
// run. What the DNS-only run allocates per vantage stays under
// campaignAllocCeiling. The all-protocol run, which `doereport -nodes`
// runs, opens a DoQ session per vantage that its client closes silently,
// so the DoQ server's connection table must stay at its cap, below the
// 2,000 vantages.
func TestScaleCampaignBoundsWorldState(t *testing.T) {
	for _, allProtos := range []bool{false, true} {
		name := "DNS"
		if allProtos {
			name = "AllProtos"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultScaleConfig()
			cfg.Nodes = 2000
			cfg.Workers = 4
			cfg.CacheLimit = 64
			cfg.AllProtos = allProtos
			c, err := NewScaleCampaign(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := c.Run(context.Background()); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			if allProtos {
				if got := doqConns(c.doq); got > doqConnCap {
					t.Errorf("DoQ server kept %d connections for %d vantages, above the cap of %d", got, cfg.Nodes, doqConnCap)
				}
			} else {
				perVantage := (after.TotalAlloc - before.TotalAlloc) / uint64(cfg.Nodes)
				ceiling := uint64(campaignAllocCeiling)
				if raceEnabled {
					ceiling = campaignRaceAllocCeiling
				}
				if perVantage > ceiling {
					t.Errorf("%d bytes allocated per vantage, above the ceiling of %d", perVantage, ceiling)
				}
			}
			if got := c.Resolver.CacheLen(); got > 64 {
				t.Errorf("resolver cache grew to %d entries past the 64 cap", got)
			}
			if got := c.Network.ActiveCount(); got != 0 {
				t.Errorf("active ledger retained %d nodes", got)
			}
		})
	}
}

func TestValidateScaleNodes(t *testing.T) {
	if err := ValidateScaleNodes(1_000_000); err != nil {
		t.Errorf("1M rejected: %v", err)
	}
	if err := ValidateScaleNodes(0); err == nil {
		t.Error("0 accepted")
	}
	if err := ValidateScaleNodes(workload.VantageCapacity + 1); err == nil {
		t.Error("over-capacity accepted")
	}
	if err := ValidateScaleNodes(workload.VantageCapacity); err != nil {
		t.Errorf("exact capacity rejected: %v", err)
	}
}
