package lint_test

import (
	"testing"
	"time"

	"dnsencryption.info/doe/internal/lint"
)

// TestRepositoryIsClean runs the full suite over this module, the same as
// `go run ./cmd/doelint ./...`. Being part of `go test ./...` makes the
// lint gate part of the tier-1 verify path: a new violation anywhere in
// the module fails this test with the finding's position and message.
func TestRepositoryIsClean(t *testing.T) {
	findings, err := lint.Run("../..", nil, lint.DefaultConfig())
	if err != nil {
		t.Fatalf("lint.Run on repository: %v", err)
	}
	for _, f := range findings {
		t.Errorf("%s", f)
	}
	if len(findings) > 0 {
		t.Logf("fix the finding or add a justified //doelint:allow directive (see internal/lint/doc.go)")
	}

	// Runtime budget: the interprocedural suite must stay cheap enough to
	// sit on the tier-1 path. Dependencies come from compiler export data,
	// and each main-module package is parsed and type-checked once; 5s
	// leaves ~10x headroom on a cold CI worker. The run above also had
	// `go list -export` compile whatever a change invalidated, which costs
	// what the build cache and the host's other builds make it cost, so
	// the budget times a second run over the export data it left.
	start := time.Now()
	if _, err := lint.Run("../..", nil, lint.DefaultConfig()); err != nil {
		t.Fatalf("timed lint.Run on repository: %v", err)
	}
	elapsed := time.Since(start)
	const budget = 5 * time.Second
	if elapsed > budget {
		t.Errorf("full-module lint took %v, over the %v budget", elapsed, budget)
	} else {
		t.Logf("full-module lint: %v (budget %v)", elapsed, budget)
	}
}
