// Package lint is the repository's custom static-analysis suite, run as
// `go run ./cmd/doelint ./...` and from the self-lint test that keeps the
// tree clean. It is built only on the standard library (go/ast, go/parser,
// go/types, go/token): dependencies are imported from compiler export data
// produced by `go list -export`, so loading the whole module takes well
// under a second and needs no module outside the toolchain. The driver
// loads each package's GoFiles only: _test.go files are not linted, and a
// directive in one does nothing.
//
// # Checks
//
//   - walltaint: the clock check. Deterministic packages
//     (Config.DeterministicPackages: internal/netsim, internal/core,
//     internal/workload) must not reach the wall clock (time.Now,
//     time.Since, time.After, ...) or the global math/rand state;
//     observability packages (internal/obs) must not reach the wall clock;
//     simulation packages must not block on real time (time.Sleep,
//     time.After). A call is reported where it is written, and a call
//     chain that reaches one — through any package — at its first call,
//     with the chain in the message. rand.New / rand.NewSource /
//     rand.NewZipf are constructors and always allowed; a function marked
//     //doelint:clockboundary absorbs the clock for its callers.
//
//   - connclose: a value acquired from a Dial/Listen/Accept/Open-style
//     call whose type implements io.Closer must be closed on every return
//     path — via defer, an inline Close, or an ownership transfer
//     (returned, stored, passed to another call, sent on a channel).
//     Returns guarded by the acquisition's own error are exempt: the
//     value is not live when the acquisition failed.
//
//   - errwrap: fmt.Errorf calls that interpolate error values must use
//     %w for each of them, so callers can errors.Is / errors.As through
//     the wrap — the difference between classifying a probe failure as a
//     timeout versus a TLS authentication error.
//
//   - lockbalance: a sync Lock()/RLock() call must have a matching
//     Unlock()/RUnlock() on the same receiver somewhere in the same
//     top-level function (deferred closures included).
//
//   - goleak, hotalloc, streaming, bufown, ctxplumb: goroutine exits in
//     simulation packages, allocation-free //doelint:hotpath functions,
//     bounded //doelint:streaming folds, bufpool ownership, and context
//     plumbing; each analyzer's doc comment states its contract.
//
// # Suppressing a finding
//
// Deliberate exceptions carry an allow directive with a mandatory
// justification. A directive that trails code covers that line only; a
// directive alone on its line covers the line below:
//
//	d := time.Until(t) //doelint:allow walltaint -- deadline timers run in real time by design
//
//	//doelint:allow lockbalance -- unlocked by the monitor goroutine
//	m.mu.Lock()
//
// Several checks can share one directive, comma-separated. A directive
// with an unknown check name or a missing justification is itself reported
// under the unsuppressible "directive" check.
//
// # Adding an analyzer
//
// Write a `var analyzerFoo = &Analyzer{Name: "foo", Doc: ..., Run: ...}`
// in a new file, using Pass.Reportf to emit findings, and append it to the
// registry slice in lint.go. The driver hands every analyzer a fully
// type-checked package (AST, *types.Package, *types.Info), so checks can
// resolve imports, methods, and interface satisfaction precisely instead
// of pattern-matching on names. Add a fixture package exercising a true
// positive, a true negative, and a suppressed finding to the table in
// analyzers_test.go — the test harness lints all fixtures in one driver
// run.
package lint
