package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// Finding is one diagnostic produced by an analyzer (or by the directive
// parser for malformed //doelint: comments).
type Finding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Col     int    `json:"col"`
	Check   string `json:"check"`
	Message string `json:"message"`

	// abs is the absolute filename as recorded in the FileSet, used to
	// match suppression directives before paths are relativized.
	abs string
}

// String renders the finding in the canonical file:line:col form.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: [%s] %s", f.File, f.Line, f.Col, f.Check, f.Message)
}

// Analyzer is one registered check. Run inspects a fully type-checked
// package via the Pass and reports findings with Pass.Reportf.
type Analyzer struct {
	// Name is the check name used in output and in //doelint:allow
	// directives. Lowercase, no spaces.
	Name string
	// Doc is a one-line description shown by `doelint -list`.
	Doc string
	// Run analyzes one package.
	Run func(*Pass)
}

// Pass carries one type-checked package through one analyzer. Graph and
// Dirs are shared across the whole run: the module-wide call graph with
// propagated facts, and the parsed directive index (transfer annotations).
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info
	Config   *Config
	Graph    *Graph
	Dirs     *directiveIndex

	findings *[]Finding
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	*p.findings = append(*p.findings, Finding{
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Check:   p.Analyzer.Name,
		Message: fmt.Sprintf(format, args...),
		abs:     position.Filename,
	})
}

// objectOf resolves an identifier whether it defines (":=") or uses ("=")
// the object.
func (p *Pass) objectOf(id *ast.Ident) types.Object {
	if obj := p.Info.Defs[id]; obj != nil {
		return obj
	}
	return p.Info.Uses[id]
}

// Config tunes the suite for a repository.
type Config struct {
	// DeterministicPackages lists import-path suffixes of packages that
	// must not reach wall-clock time or the global math/rand state,
	// directly or through their callees (walltaint).
	DeterministicPackages []string
	// SimulationPackages lists import-path suffixes of packages that run
	// on the virtual clock and therefore must never block on real time
	// (time.Sleep / time.After), directly or through their callees
	// (walltaint), and whose goroutines must be able to exit (goleak).
	SimulationPackages []string
	// ObservabilityPackages lists import-path suffixes of telemetry
	// packages that must not reach the wall clock at all (reads, timers
	// and sleeps) — traces and metric snapshots share the byte-identical
	// report contract.
	ObservabilityPackages []string
	// Checks restricts which analyzers run; empty means all registered.
	// Either a list of names to run, or a list of "-name" exclusions.
	Checks []string
}

// DefaultConfig returns the configuration used for this repository: the
// simulation core packages are deterministic and every check runs.
func DefaultConfig() *Config {
	return &Config{
		DeterministicPackages: []string{
			"internal/netsim",
			"internal/core",
			"internal/workload",
		},
		SimulationPackages: []string{
			"internal/netsim",
			"internal/core",
			"internal/workload",
			"internal/scanner",
			"internal/vantage",
			"internal/proxy",
			"internal/dnsserver",
			"internal/dnsclient",
			"internal/dnscrypt",
			"internal/dot",
			"internal/doh",
			"internal/resolver",
			"internal/runner",
		},
		ObservabilityPackages: []string{
			"internal/obs",
		},
	}
}

// IsDeterministic reports whether the package at pkgPath is deterministic.
// Entries match the whole path or a "/"-delimited suffix.
func (c *Config) IsDeterministic(pkgPath string) bool {
	return matchPackage(c.DeterministicPackages, pkgPath)
}

// IsSimulation reports whether the package at pkgPath is a simulation
// package. Entries match the whole path or a "/"-delimited suffix.
func (c *Config) IsSimulation(pkgPath string) bool {
	return matchPackage(c.SimulationPackages, pkgPath)
}

// IsObservability reports whether the package at pkgPath is an
// observability package. Entries match the whole path or a "/"-delimited
// suffix.
func (c *Config) IsObservability(pkgPath string) bool {
	return matchPackage(c.ObservabilityPackages, pkgPath)
}

func matchPackage(suffixes []string, pkgPath string) bool {
	for _, suf := range suffixes {
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

// checkEnabled evaluates the Checks selection. An empty list runs
// everything. A list of names runs exactly those; a list of "-name"
// exclusions runs everything but those. Mixing both forms is rejected by
// validateChecks before any analyzer runs.
func (c *Config) checkEnabled(name string) bool {
	if len(c.Checks) == 0 {
		return true
	}
	if strings.HasPrefix(c.Checks[0], "-") {
		for _, want := range c.Checks {
			if strings.TrimPrefix(want, "-") == name {
				return false
			}
		}
		return true
	}
	for _, want := range c.Checks {
		if want == name {
			return true
		}
	}
	return false
}

// validateChecks rejects unknown check names and mixed include/exclude
// selections.
func (c *Config) validateChecks() error {
	excludes, includes := 0, 0
	for _, entry := range c.Checks {
		name := entry
		if strings.HasPrefix(entry, "-") {
			name = entry[1:]
			excludes++
		} else {
			includes++
		}
		if !knownCheck(name) {
			return fmt.Errorf("lint: unknown check %q (run doelint -list for the registered checks)", name)
		}
	}
	if excludes > 0 && includes > 0 {
		return fmt.Errorf("lint: -checks cannot mix inclusions and -name exclusions: %v", c.Checks)
	}
	return nil
}

// DirectiveCheck is the pseudo-check name under which malformed
// //doelint: comments are reported. It cannot be suppressed.
const DirectiveCheck = "directive"

// registry holds every analyzer the driver runs, in execution order.
// walltaint, bufown, ctxplumb, and the interprocedural half of hotalloc
// consult the shared call graph.
var registry = []*Analyzer{
	analyzerWalltaint,
	analyzerConnclose,
	analyzerErrwrap,
	analyzerLockbalance,
	analyzerGoleak,
	analyzerHotalloc,
	analyzerStreaming,
	analyzerBufown,
	analyzerCtxplumb,
}

// Analyzers returns the registered analyzers.
func Analyzers() []*Analyzer {
	out := make([]*Analyzer, len(registry))
	copy(out, registry)
	return out
}

// knownCheck reports whether name is a registered analyzer name (or the
// directive pseudo-check), i.e. valid in a //doelint:allow directive.
func knownCheck(name string) bool {
	if name == DirectiveCheck {
		return true
	}
	for _, a := range registry {
		if a.Name == name {
			return true
		}
	}
	return false
}
