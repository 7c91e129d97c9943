package lint_test

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dnsencryption.info/doe/internal/lint"
)

// lintFixtures writes files (keyed by module-relative path) into a fresh
// module and runs the full driver over it — go list, export data, type
// checking, analyzers, directives — exactly as doelint does on the real
// repository.
func lintFixtures(t *testing.T, cfg *lint.Config, files map[string]string) []lint.Finding {
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
	findings, err := lint.Run(dir, []string{"./..."}, cfg)
	if err != nil {
		t.Fatalf("lint.Run: %v", err)
	}
	return findings
}

// byCheck filters findings to one check and renders them as file:line for
// compact assertions.
func byCheck(findings []lint.Finding, check string) []string {
	var out []string
	for _, f := range findings {
		if f.Check == check {
			out = append(out, fmt.Sprintf("%s:%d", filepath.ToSlash(f.File), f.Line))
		}
	}
	return out
}

func wantFindings(t *testing.T, findings []lint.Finding, check string, want []string) {
	t.Helper()
	got := byCheck(findings, check)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("%s findings = %v, want %v\nall: %v", check, got, want, findings)
	}
}

func TestDeterminism(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.DeterministicPackages = []string{"det"}
	findings := lintFixtures(t, cfg, map[string]string{
		// True positives: global rand and wall clock in a deterministic
		// package; one suppressed by directive.
		"det/det.go": `package det

import (
	"math/rand"
	"time"
)

func Bad() int {
	n := rand.Intn(10)                   // line 9: finding
	_ = time.Now()                       // line 10: finding
	_ = time.Since(time.Unix(0, 0))      // line 11: finding
	return n
}

func Allowed() time.Time {
	return time.Now() //doelint:allow walltaint -- fixture: deliberate wall-clock read
}

func Seeded() int {
	rng := rand.New(rand.NewSource(42)) // constructors are fine
	return rng.Intn(10)
}
`,
		// True negative: same code outside the deterministic set.
		"free/free.go": `package free

import "time"

func Fine() time.Time { return time.Now() }
`,
	})
	wantFindings(t, findings, "walltaint", []string{
		"det/det.go:9", "det/det.go:10", "det/det.go:11",
	})
}

func TestSimsleep(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.SimulationPackages = []string{"sim"}
	findings := lintFixtures(t, cfg, map[string]string{
		// True positives: real blocking calls in a simulation package;
		// one suppressed by directive. Non-blocking time uses (Duration
		// arithmetic, timers the package never starts) stay silent.
		"sim/sim.go": `package sim

import "time"

func Bad(ch chan int) {
	time.Sleep(time.Millisecond) // line 6: finding
	select {
	case <-ch:
	case <-time.After(time.Second): // line 9: finding
	}
}

func Allowed() {
	time.Sleep(time.Millisecond) //doelint:allow walltaint -- fixture: deliberate real sleep
}

func Fine() time.Duration {
	return 3 * time.Millisecond
}
`,
		// True negative: the same blocking calls outside the simulation
		// set (real-time harness code may sleep).
		"harness/harness.go": `package harness

import "time"

func Wait() { time.Sleep(time.Millisecond) }
`,
	})
	wantFindings(t, findings, "walltaint", []string{"sim/sim.go:6", "sim/sim.go:9"})
}

func TestObsclock(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ObservabilityPackages = []string{"obs"}
	findings := lintFixtures(t, cfg, map[string]string{
		// True positives: wall-clock reads and blocking in an
		// observability package; one suppressed by directive. Duration
		// arithmetic stays silent — telemetry is built on virtual deltas.
		"obs/obs.go": `package obs

import "time"

func Bad() time.Duration {
	start := time.Now()             // line 6: finding
	time.Sleep(time.Millisecond)    // line 7: finding
	return time.Since(start)        // line 8: finding
}

func Allowed() time.Time {
	return time.Now() //doelint:allow walltaint -- fixture: deliberate wall-clock read
}

func Fine(d time.Duration) time.Duration {
	return d + 3*time.Millisecond
}
`,
		// True negative: the same reads outside the observability set
		// (CLI harness code may time itself).
		"cli/cli.go": `package cli

import "time"

func Stamp() time.Time { return time.Now() }
`,
	})
	wantFindings(t, findings, "walltaint", []string{"obs/obs.go:6", "obs/obs.go:7", "obs/obs.go:8"})
}

// TestObsclockMemStatsSampler pins the contract for the volatile MemStats
// sampler: reading runtime.MemStats from an observability package is fine
// (it is not a clock), but pacing the sampler with time.NewTicker or
// stamping samples with time.Now inside the observability set is exactly
// what walltaint must flag — samplers run at exposure time, driven by the
// scrape loop outside the package, never on the virtual-clock path.
func TestObsclockMemStatsSampler(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.ObservabilityPackages = []string{"obs"}
	findings := lintFixtures(t, cfg, map[string]string{
		"obs/memstats.go": `package obs

import (
	"runtime"
	"time"
)

var heapHighWater uint64

func Sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms) // fine: volatile memory reading, not a clock
	if ms.HeapAlloc > heapHighWater {
		heapHighWater = ms.HeapAlloc
	}
}

func BadSelfPacedSampler() *time.Ticker {
	return time.NewTicker(time.Second) // line 19: finding
}

func BadStampedSample() int64 {
	return time.Now().UnixNano() // line 23: finding
}
`,
	})
	wantFindings(t, findings, "walltaint", []string{"obs/memstats.go:19", "obs/memstats.go:23"})
}

func TestErrwrap(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"wrap/wrap.go": `package wrap

import (
	"errors"
	"fmt"
)

var ErrBase = errors.New("base")

func Bad(err error) error {
	return fmt.Errorf("doing thing: %v", err) // line 11: finding
}

func HalfWrapped(err error) error {
	return fmt.Errorf("%w: %v", ErrBase, err) // line 15: finding (2 errors, 1 %w)
}

func Allowed(err error) error {
	return fmt.Errorf("lossy on purpose: %v", err) //doelint:allow errwrap -- fixture: message intentionally flattens
}

func Good(err error) error {
	return fmt.Errorf("doing thing: %w", err)
}

func BothWrapped(err error) error {
	return fmt.Errorf("%w: %w", ErrBase, err)
}

func NoError(n int) error {
	return fmt.Errorf("count %d of %s", n, "things")
}

func NilArg() error {
	return fmt.Errorf("value %v", nil)
}
`,
	})
	wantFindings(t, findings, "errwrap", []string{"wrap/wrap.go:11", "wrap/wrap.go:15"})
}

func TestConnclose(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"conns/conns.go": `package conns

import "net"

func Leaky(addr string) error {
	conn, err := net.Dial("tcp", addr) // line 6: finding (never closed)
	if err != nil {
		return err
	}
	_ = conn.SetDeadline
	return nil
}

func EarlyReturn(addr string, bail bool) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	if bail {
		return nil // line 20: finding (close below is skipped)
	}
	return conn.Close()
}

func Allowed(addr string) error {
	conn, err := net.Dial("tcp", addr) //doelint:allow connclose -- fixture: closed by the caller via package registry
	if err != nil {
		return err
	}
	_ = conn.RemoteAddr()
	return nil
}

func Deferred(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	return nil
}

func Transferred(addr string) (net.Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return conn, nil
}

func GoroutineOwned(addr string) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	go func() {
		defer conn.Close()
		buf := make([]byte, 1)
		conn.Read(buf)
	}()
	return nil
}
`,
	})
	wantFindings(t, findings, "connclose", []string{"conns/conns.go:6", "conns/conns.go:20"})
}

func TestLockbalance(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"locks/locks.go": `package locks

import "sync"

type box struct {
	mu sync.Mutex
	ro sync.RWMutex
	n  int
}

func (b *box) Bad() {
	b.mu.Lock() // line 12: finding
	b.n++
}

func (b *box) BadRead() int {
	b.ro.RLock() // line 17: finding
	return b.n
}

func (b *box) Allowed() {
	//doelint:allow lockbalance -- fixture: unlocked by the monitor goroutine
	b.mu.Lock()
	b.n++
}

func (b *box) Good() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.n++
}

func (b *box) GoodInline() {
	b.mu.Lock()
	b.n++
	b.mu.Unlock()
}

func (b *box) GoodClosure() {
	b.mu.Lock()
	defer func() { b.mu.Unlock() }()
	b.n++
}

func (b *box) GoodRead() int {
	b.ro.RLock()
	defer b.ro.RUnlock()
	return b.n
}
`,
	})
	wantFindings(t, findings, "lockbalance", []string{"locks/locks.go:12", "locks/locks.go:17"})
}

func TestGoleak(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.SimulationPackages = []string{"relay"}
	findings := lintFixtures(t, cfg, map[string]string{
		"relay/relay.go": `package relay

import "net"

func Pump(ch chan int, conn net.Conn) {
	go func() {
		for { // line 7: finding (no exit: leaks when readers stop)
			ch <- 1
		}
	}()
	go func() {
		for { // line 12: finding (break only leaves the select)
			select {
			case ch <- 1:
			default:
				break
			}
		}
	}()
	go func() {
		buf := make([]byte, 1)
		for { // fine: exits via return on read error
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	go func() {
		for { // fine: unlabeled break bound to this loop
			if _, ok := <-ch; !ok {
				break
			}
		}
	}()
	go func() {
	drain:
		for { // fine: labeled break escapes the loop from inside the select
			select {
			case _, ok := <-ch:
				if !ok {
					break drain
				}
			}
		}
	}()
}

func Allowed(ch chan int) {
	go func() {
		//doelint:allow goleak -- fixture: process-lifetime ticker by design
		for {
			ch <- 1
		}
	}()
}

func Bounded(ch chan int) {
	for i := 0; i < 3; i++ { // fine: not a goroutine body
		ch <- i
	}
	go func() {
		for done := false; !done; { // fine: conditioned loop
			_, done = <-ch
		}
	}()
}
`,
		// True negative: same leak outside the simulation set.
		"daemon/daemon.go": `package daemon

func Run(ch chan int) {
	go func() {
		for {
			ch <- 1
		}
	}()
}
`,
	})
	wantFindings(t, findings, "goleak", []string{"relay/relay.go:7", "relay/relay.go:12"})
}

func TestDirectiveValidation(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"dir/dir.go": `package dir

//doelint:allow errwrap
func A() {} // line 3: finding (no justification)

//doelint:allow nosuchcheck -- whatever
func B() {} // line 6: finding (unknown check)

//doelint:frobnicate the thing
func C() {} // line 9: finding (unknown directive)

//doelint:allow errwrap -- a legitimate, justified suppression
func D() {}
`,
	})
	wantFindings(t, findings, lint.DirectiveCheck, []string{"dir/dir.go:3", "dir/dir.go:6", "dir/dir.go:9"})
}

// TestDirectiveScope pins the reach of line-scoped directives: one that
// trails code covers that line only, and one alone on its line covers the
// line below.
func TestDirectiveScope(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.DeterministicPackages = []string{"det"}
	findings := lintFixtures(t, cfg, map[string]string{
		"det/det.go": `package det

import "time"

func Pair() (time.Time, time.Time, time.Time) {
	a := time.Now() //doelint:allow walltaint -- fixture: covers this line only
	b := time.Now() // line 7: finding
	//doelint:allow walltaint -- fixture: covers the line below
	c := time.Now()
	return a, b, c
}
`,
		"bufpool/bufpool.go": fixtureBufpool,
		"own/own.go": `package own

import "fixture.example/m/bufpool"

type S struct{ buf *[]byte }

func Pair() (S, S, S) {
	a := S{buf: bufpool.Get(10)} //doelint:transfer -- fixture: a owns the buffer
	b := S{buf: bufpool.Get(10)} // line 9: finding
	//doelint:transfer -- fixture: c owns the buffer
	c := S{buf: bufpool.Get(10)}
	return a, b, c
}
`,
	})
	wantFindings(t, findings, "walltaint", []string{"det/det.go:7"})
	wantFindings(t, findings, "bufown", []string{"own/own.go:9"})
}

func TestCheckSelection(t *testing.T) {
	cfg := lint.DefaultConfig()
	cfg.Checks = []string{"lockbalance"}
	findings := lintFixtures(t, cfg, map[string]string{
		"sel/sel.go": `package sel

import (
	"fmt"
	"sync"
)

var mu sync.Mutex

func Bad(err error) error {
	mu.Lock() // finding: lockbalance runs
	return fmt.Errorf("oops: %v", err) // no finding: errwrap disabled
}
`,
	})
	wantFindings(t, findings, "lockbalance", []string{"sel/sel.go:11"})
	wantFindings(t, findings, "errwrap", nil)
}

func TestHotalloc(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"hot/hot.go": `package hot

import "fmt"

// Exchange is the steady-state query path.
//
//doelint:hotpath
func Exchange(n int) []byte {
	buf := make([]byte, n)
	_ = fmt.Sprintf("q:%d", n)
	fill := func() []byte { return make([]byte, 4) }
	_ = fill
	_ = make([]int, n)
	//doelint:allow hotalloc -- sizing happens once per session, not per query
	hdr := make([]byte, 2)
	return append(buf, hdr...)
}

// Cold uses the same patterns unannotated: no findings.
func Cold(n int) []byte {
	_ = fmt.Sprintf("q:%d", n)
	return make([]byte, n)
}

type raw []byte

// Frame returns a named byte slice; named []byte types count.
//
//doelint:hotpath
func Frame(n int) raw {
	return make(raw, n)
}
`,
		"hot/bad.go": `package hot

//doelint:hotpath with-arguments
func Bad() {}
`,
	})
	wantFindings(t, findings, "hotalloc", []string{
		"hot/hot.go:9", "hot/hot.go:10", "hot/hot.go:11", "hot/hot.go:31",
	})
	wantFindings(t, findings, "directive", []string{"hot/bad.go:3"})
}

func TestStreaming(t *testing.T) {
	findings := lintFixtures(t, lint.DefaultConfig(), map[string]string{
		"st/st.go": `package st

// Fold accumulates per-item results — the exact antipattern.
//
//doelint:streaming
func Fold(n int) []int {
	var acc []int
	for i := 0; i < n; i++ {
		acc = append(acc, i) // line 9: finding
		scratch := make([]int, 0, 4)
		scratch = append(scratch, i) // per-iteration scratch: fine
		_ = scratch
	}
	return acc
}

type sink struct{ rows []int }

// Fill accumulates into a field, through a closure.
//
//doelint:streaming
func (s *sink) Fill(n int, each func(func(int))) {
	for i := 0; i < n; i++ {
		each(func(v int) {
			s.rows = append(s.rows, v+i) // line 25: finding
		})
	}
}

// Bounded appends once per worker, a justified bounded accumulation.
//
//doelint:streaming
func Bounded(workers int) [][]int {
	out := make([][]int, 0, workers)
	for w := 0; w < workers; w++ {
		out = append(out, nil) //doelint:allow streaming -- fixture: bounded by worker count, not population
	}
	return out
}

// Plain is unannotated: the check ignores it.
func Plain(n int) []int {
	var acc []int
	for i := 0; i < n; i++ {
		acc = append(acc, i)
	}
	return acc
}
`,
		"st/bad.go": `package st

//doelint:streaming with-arguments
func Bad() {}
`,
	})
	wantFindings(t, findings, "streaming", []string{"st/st.go:9", "st/st.go:25"})
	wantFindings(t, findings, "directive", []string{"st/bad.go:3"})
}
