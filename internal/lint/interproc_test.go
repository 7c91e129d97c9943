package lint_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsencryption.info/doe/internal/lint"
)

// fixtureBufpool is a minimal stand-in for the module's buffer pool; the
// analyzers match the package by its path's last segment, so the fixture
// module can carry its own.
const fixtureBufpool = `package bufpool

func Get(n int) *[]byte {
	b := make([]byte, 0, n)
	return &b
}

func Put(b *[]byte) {}
`

// writeModule writes files into a fresh module and returns its directory,
// for tests that call lint.Run directly (error cases, custom patterns).
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	mod := "module fixture.example/m\n\ngo 1.22\n"
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		t.Fatal(err)
	}
	for rel, content := range files {
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

var walltaintFixture = map[string]string{
	// det.Entry reaches time.Now through util.Stamp (finding, with the
	// chain in the message); det.Roll reaches the global rand the same way.
	// A justified allow on the call line suppresses exactly that path, a
	// clockboundary on the callee absorbs the facts, and a direct read in
	// det is one finding where it is written.
	"det/det.go": `package det

import (
	"time"

	"fixture.example/m/util"
)

func Entry() int64 { return util.Stamp() }

func Allowed() int64 {
	return util.Stamp() //doelint:allow walltaint -- fixture: audited boundary
}

func ViaBoundary() int64 { return util.Bounded() }

func Roll() int { return util.Roll() }

func Direct() int64 { return time.Now().UnixNano() }
`,
	"util/util.go": `package util

import (
	"math/rand"
	"time"
)

func Stamp() int64 { return time.Now().UnixNano() }

// Bounded converts one wall reading into the virtual timeline.
//
//doelint:clockboundary -- fixture: converts wall readings to virtual time
func Bounded() int64 { return time.Now().UnixNano() }

func Roll() int { return rand.Intn(6) }
`,
}

func TestWalltaint(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.DeterministicPackages = []string{"det"}
	findings := lintFixtures(t, cfg, walltaintFixture)

	// The direct read is reported once, where it is written; no chain
	// finding duplicates it.
	wantFindings(t, findings, "walltaint", []string{"det/det.go:9", "det/det.go:17", "det/det.go:19"})

	var clockMsg, randMsg string
	for _, f := range findings {
		if f.Check != "walltaint" {
			continue
		}
		switch f.Line {
		case 9:
			clockMsg = f.Message
		case 17:
			randMsg = f.Message
		}
	}
	if !strings.Contains(clockMsg, "det.Entry -> util.Stamp -> time.Now") {
		t.Errorf("clock taint message lacks the call chain: %q", clockMsg)
	}
	if !strings.Contains(randMsg, "det.Roll -> util.Roll -> rand.Intn") {
		t.Errorf("rand taint message lacks the call chain: %q", randMsg)
	}
}

func TestWalltaintObservability(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ObservabilityPackages = []string{"tele"}
	findings := lintFixtures(t, cfg, map[string]string{
		// Wall-clock reach is a finding for observability packages; the
		// global rand rule applies only to deterministic ones.
		"tele/tele.go": `package tele

import "fixture.example/m/util"

func Record() int64 { return util.Stamp() }

func ID() int { return util.Roll() }
`,
		"util/util.go": walltaintFixture["util/util.go"],
	})
	wantFindings(t, findings, "walltaint", []string{"tele/tele.go:5"})
}

// TestWalltaintSimulation covers the blocking rule through helpers: a
// simulation package must not reach time.Sleep or time.After through a
// package outside the simulation set.
func TestWalltaintSimulation(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.SimulationPackages = []string{"sim"}
	findings := lintFixtures(t, cfg, map[string]string{
		"sim/sim.go": `package sim

import "fixture.example/m/harness"

func Bad() { harness.Wait() } // line 5: finding

func BadTimer(ch chan int) { harness.WaitOr(ch) } // line 7: finding

func Boundary() { harness.Settled() }

func Allowed() {
	harness.Wait() //doelint:allow walltaint -- fixture: audited real-time wait
}
`,
		"harness/harness.go": `package harness

import "time"

func Wait() { time.Sleep(time.Millisecond) }

func WaitOr(ch chan int) {
	select {
	case <-ch:
	case <-time.After(time.Second):
	}
}

// Settled waits on the wall clock on behalf of its callers.
//
//doelint:clockboundary -- fixture: converts a real wait into a virtual step
func Settled() { Wait() }
`,
	})
	wantFindings(t, findings, "walltaint", []string{"sim/sim.go:5", "sim/sim.go:7"})

	msgs := map[int]string{}
	for _, f := range findings {
		if f.Check == "walltaint" {
			msgs[f.Line] = f.Message
		}
	}
	for line, chain := range map[int]string{
		5: "sim.Bad -> harness.Wait -> time.Sleep",
		7: "sim.BadTimer -> harness.WaitOr -> time.After",
	} {
		if !strings.Contains(msgs[line], chain) || !strings.Contains(msgs[line], "blocks on real time") {
			t.Errorf("line %d message lacks the blocking chain %q: %q", line, chain, msgs[line])
		}
	}
}

func TestBufown(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"bufpool/bufpool.go": fixtureBufpool,
		"q/q.go": `package q

import "fixture.example/m/bufpool"

func Sink(b *[]byte) { bufpool.Put(b) }
`,
		"p/p.go": `package p

import (
	"errors"

	"fixture.example/m/bufpool"
	"fixture.example/m/q"
)

type S struct{ buf *[]byte }

func Leak() {
	b := bufpool.Get(10) // line 13: never returned to the pool
	_ = b
}

func EarlyReturn(fail bool) error {
	b := bufpool.Get(10)
	if fail {
		return errors.New("fail") // line 20: return without Put
	}
	bufpool.Put(b)
	return nil
}

func Fine() int {
	b := bufpool.Get(10)
	defer bufpool.Put(b)
	return cap(*b)
}

func UseAfterPut() int {
	b := bufpool.Get(10)
	bufpool.Put(b)
	return len(*b) // line 35: use after Put
}

func Handoff() {
	b := bufpool.Get(10)
	sink(b)
}

func CrossHandoff() {
	b := bufpool.Get(10)
	q.Sink(b)
}

func BadHandoff() {
	b := bufpool.Get(10)
	drop(b) // line 50: handed to a helper that never Puts
}

func Transferred() *[]byte {
	b := bufpool.Get(10)
	return b //doelint:transfer -- fixture: caller owns the buffer
}

func EscapeAtAcq() S {
	return S{buf: bufpool.Get(10)} // line 59: escapes at acquisition
}

func AnnotatedEscape() S {
	return S{buf: bufpool.Get(10)} //doelint:transfer -- fixture: S owns the buffer
}

func sink(b *[]byte) { bufpool.Put(b) }

func drop(b *[]byte) { _ = b }
`,
	})
	wantFindings(t, findings, "bufown", []string{
		"p/p.go:13", "p/p.go:20", "p/p.go:35", "p/p.go:50", "p/p.go:59",
	})
}

func TestCtxplumb(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"c/c.go": `package c

import "context"

func Root() context.Context {
	return context.Background() // line 6: root outside main
}

// OkRoot is the fixture's process root.
//
//doelint:ctxroot -- fixture: the one legitimate root
func OkRoot() context.Context {
	return context.Background()
}

// Deprecated: use QueryContext.
func Query() {
	QueryContext(context.TODO())
}

func Wrap() {
	WrapContext(context.Background())
}

func WrapContext(ctx context.Context) { _ = ctx }

func QueryContext(ctx context.Context) { _ = ctx }

func BadSig(name string, ctx context.Context) { _, _ = name, ctx } // line 29: ctx not first

type Holder struct{ ctx context.Context }

func StoreLit(ctx context.Context) *Holder {
	return &Holder{ctx: ctx} // line 34: stored in composite literal
}

func (h *Holder) Set(ctx context.Context) {
	h.ctx = ctx // line 38: stored in struct field
}
`,
		// Package main is the legitimate place for a root context.
		"cmd/m/main.go": `package main

import "context"

func main() {
	_ = context.Background()
}
`,
	})
	wantFindings(t, findings, "ctxplumb", []string{
		"c/c.go:6", "c/c.go:29", "c/c.go:34", "c/c.go:38",
	})
}

func TestHotallocInterprocedural(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"h/h.go": `package h

import "fixture.example/m/hu"

// Hot is on the steady-state path.
//
//doelint:hotpath
func Hot() []byte { return hu.Helper(10) } // line 8: helper allocates per call

// HotOK calls an allow-justified helper: the masked source never taints.
//
//doelint:hotpath
func HotOK() []byte { return hu.Amortized(10) }

// HotViaHot delegates to a hotpath-annotated helper, whose discipline is
// enforced at its own declaration, not at this call.
//
//doelint:hotpath
func HotViaHot() []byte { return hu.HotHelper(10) }
`,
		"hu/hu.go": `package hu

func Helper(n int) []byte { return make([]byte, n) }

func Amortized(n int) []byte {
	return make([]byte, n) //doelint:allow hotalloc -- fixture: amortized growth
}

// HotHelper is itself on the hot path.
//
//doelint:hotpath
func HotHelper(n int) []byte { return make([]byte, n) } // line 12: direct allocation
`,
	})
	wantFindings(t, findings, "hotalloc", []string{"h/h.go:8", "hu/hu.go:12"})

	var msg string
	for _, f := range findings {
		if f.Check == "hotalloc" && strings.HasSuffix(filepath.ToSlash(f.File), "h/h.go") {
			msg = f.Message
		}
	}
	if !strings.Contains(msg, "hu.Helper -> make([]byte)") {
		t.Errorf("interprocedural hotalloc message lacks the chain: %q", msg)
	}
}

func TestDuplicatePatternsDedupe(t *testing.T) {
	dir := writeModule(t, walltaintFixture)
	cfg := lint.DefaultConfig()
	cfg.DeterministicPackages = []string{"det"}

	once, err := lint.Run(dir, []string{"./..."}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// The same package arrives as a root three times over and as a
	// dependency of det; findings must not multiply.
	dup, err := lint.Run(dir, []string{"./...", "./det", "./det", "./util"}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(once) == 0 {
		t.Fatal("fixture produced no findings")
	}
	if len(dup) != len(once) {
		t.Fatalf("duplicate patterns changed findings: %d vs %d\n%v\n%v", len(dup), len(once), dup, once)
	}
	for i := range once {
		if once[i] != dup[i] {
			t.Errorf("finding %d differs: %v vs %v", i, once[i], dup[i])
		}
	}
}

func TestChecksExclusion(t *testing.T) {
	files := map[string]string{
		"wrap/wrap.go": `package wrap

import "fmt"

func Bad(err error) error { return fmt.Errorf("lossy: %v", err) }
`,
	}
	for rel, content := range walltaintFixture {
		files[rel] = content
	}
	dir := writeModule(t, files)
	cfg := lint.DefaultConfig()
	cfg.DeterministicPackages = []string{"det"}
	cfg.Checks = []string{"-walltaint"}

	findings, err := lint.Run(dir, []string{"./..."}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := byCheck(findings, "walltaint"); len(got) != 0 {
		t.Errorf("excluded walltaint still reported: %v", got)
	}
	if got := byCheck(findings, "errwrap"); len(got) == 0 {
		t.Error("exclusion of one check silenced the others")
	}
}

func TestChecksValidation(t *testing.T) {
	dir := writeModule(t, map[string]string{"p/p.go": "package p\n"})
	cases := []struct {
		checks []string
		want   string
	}{
		{[]string{"nosuch"}, "unknown check"},
		{[]string{"-nosuch"}, "unknown check"},
		{[]string{"errwrap", "-walltaint"}, "cannot mix"},
	}
	for _, tc := range cases {
		cfg := lint.DefaultConfig()
		cfg.Checks = tc.checks
		_, err := lint.Run(dir, []string{"./..."}, cfg)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Checks=%v: error %v, want containing %q", tc.checks, err, tc.want)
		}
	}
}
