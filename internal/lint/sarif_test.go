package lint_test

import (
	"encoding/json"
	"testing"

	"dnsencryption.info/doe/internal/lint"
)

func finding(file, check, msg string, line int) lint.Finding {
	return lint.Finding{File: file, Line: line, Col: 1, Check: check, Message: msg}
}

func TestSARIF(t *testing.T) {
	findings := []lint.Finding{
		finding("internal/dot/dot.go", "bufown", "bufpool.Get result leaks", 42),
	}
	data, err := lint.SARIF(findings)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Message   struct{ Text string }
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output is not valid JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 {
		t.Fatalf("version %q, %d runs", log.Version, len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "doelint" {
		t.Errorf("driver name %q", run.Tool.Driver.Name)
	}
	ruleIDs := make(map[string]bool)
	for _, r := range run.Tool.Driver.Rules {
		ruleIDs[r.ID] = true
	}
	for _, a := range lint.Analyzers() {
		if !ruleIDs[a.Name] {
			t.Errorf("rule %s missing from SARIF driver metadata", a.Name)
		}
	}
	if !ruleIDs[lint.DirectiveCheck] {
		t.Error("directive pseudo-check missing from SARIF rules")
	}
	if len(run.Results) != 1 {
		t.Fatalf("%d results, want 1", len(run.Results))
	}
	res := run.Results[0]
	if res.RuleID != "bufown" || res.Level != "error" {
		t.Errorf("result = %+v", res)
	}
	loc := res.Locations[0].PhysicalLocation
	if loc.ArtifactLocation.URI != "internal/dot/dot.go" || loc.Region.StartLine != 42 {
		t.Errorf("location = %+v", loc)
	}
}
