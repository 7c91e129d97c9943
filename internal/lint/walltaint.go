package lint

import (
	"go/ast"
	"go/types"
)

// analyzerWalltaint is the clock check. Every latency the study reports
// comes from netsim's virtual clock, so the packages that produce those
// numbers must not consult the wall clock, the global math/rand state or
// real-time blocking. One classifier (clockCall) maps each package-level
// time or math/rand call to its clock facts, and one policy (clockRules)
// maps Config's three package lists to the facts each may not reach.
//
// A forbidden call is reported where it is written. A forbidden fact that
// a function reaches only through its callees is reported once, at the
// first call of the first chain that reaches it, with the whole chain in
// the message — even when every frame of the chain lives in a package no
// rule covers. A source under a justified //doelint:allow walltaint never
// taints its callers, and an allow on a call line suppresses that chain.
// A function annotated //doelint:clockboundary absorbs every clock fact
// for its callers (it asserts it converts wall readings into virtual
// time); the clock calls written in its own body stay checked.
var analyzerWalltaint = &Analyzer{
	Name: "walltaint",
	Doc:  "no wall clock or global rand (deterministic), wall clock (observability) or real blocking (simulation), directly or via any call chain",
	Run:  runWalltaint,
}

// timeFacts classifies the time package's functions that read, schedule
// against or block on the wall clock. Duration arithmetic and the value
// methods of time.Time carry no fact.
var timeFacts = map[string]Fact{
	"Now":       FactWallClock,
	"Since":     FactWallClock,
	"Until":     FactWallClock,
	"AfterFunc": FactWallClock,
	"Tick":      FactWallClock,
	"NewTicker": FactWallClock,
	"NewTimer":  FactWallClock,
	"After":     FactWallClock | FactBlock,
	"Sleep":     FactWallClock | FactBlock,
}

// randConstructors are the math/rand functions that build seeded state
// rather than draw from the global generator.
var randConstructors = map[string]bool{
	"New":       true,
	"NewSource": true,
	"NewZipf":   true,
}

// clockCall classifies a call to fn: the clock facts of a package-level
// time or math/rand function, zero for anything else.
func clockCall(fn *types.Func) Fact {
	if fn.Pkg() == nil || fn.Type().(*types.Signature).Recv() != nil {
		return 0
	}
	switch fn.Pkg().Path() {
	case "time":
		return timeFacts[fn.Name()]
	case "math/rand", "math/rand/v2":
		if !randConstructors[fn.Name()] {
			return FactGlobalRand
		}
	}
	return 0
}

// clockRule forbids one clock fact to one class of packages.
type clockRule struct {
	class  string
	member func(*Config, string) bool
	fact   Fact
	does   string // what a call carrying the fact does
	fix    string
}

// clockRules is the clock policy, in reporting order: when a call carries
// several forbidden facts, the first rule names the finding.
var clockRules = []clockRule{
	{"deterministic", (*Config).IsDeterministic, FactWallClock,
		"uses the wall clock", "derive time from the simulation clock"},
	{"deterministic", (*Config).IsDeterministic, FactGlobalRand,
		"draws from the global math/rand state", "draw from a seeded *rand.Rand"},
	{"observability", (*Config).IsObservability, FactWallClock,
		"uses the wall clock", "charge telemetry to the virtual clock only"},
	{"simulation", (*Config).IsSimulation, FactBlock,
		"blocks on real time", "model delay on the virtual clock (netsim AddLatency)"},
}

func runWalltaint(pass *Pass) {
	var rules []clockRule
	for _, r := range clockRules {
		if r.member(pass.Config, pass.Pkg.Path()) {
			rules = append(rules, r)
		}
	}
	if len(rules) == 0 {
		return
	}
	forbids := func(f Fact) *clockRule {
		for i := range rules {
			if rules[i].fact&f != 0 {
				return &rules[i]
			}
		}
		return nil
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if fn := calleeFunc(pass.Info, call); fn != nil {
				if r := forbids(clockCall(fn)); r != nil {
					pass.Reportf(call.Pos(), "%s.%s %s in %s package %s; %s",
						fn.Pkg().Name(), fn.Name(), r.does, r.class, pass.Pkg.Path(), r.fix)
				}
			}
			return true
		})
		for _, decl := range file.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Body != nil {
				reportClockChains(pass, fn, forbids)
			}
		}
	}
}

// reportClockChains reports each forbidden fact that decl reaches through
// its callees but not in its own body (the direct finding covers that),
// at the first call whose callee passes the fact up.
func reportClockChains(pass *Pass, decl *ast.FuncDecl, forbids func(Fact) *clockRule) {
	obj, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return
	}
	node := pass.Graph.node(funcID(obj))
	if node == nil || node.clockBoundary {
		return
	}
	reported := node.direct
	for _, e := range node.edges {
		callee := pass.Graph.node(e.callee)
		if callee == nil || pass.Dirs.allow.covers(pass.Fset, e.pos, "walltaint") {
			continue
		}
		reach := callee.contribution() &^ reported
		r := forbids(reach)
		if r == nil {
			continue
		}
		reported |= reach
		steps, _, source := pass.Graph.taintPath(e.callee, r.fact)
		pass.Reportf(e.pos,
			"call chain %s -> %s %s in %s package %s; %s, or mark the wall/virtual conversion point //doelint:clockboundary",
			displayName(node.id), renderTaint(steps, source), r.does, r.class, pass.Pkg.Path(), r.fix)
	}
}
