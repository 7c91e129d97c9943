package lint

import (
	"go/importer"
	"go/token"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildFixtureGraph runs the loading half of the driver — go list, export
// data, type checking, directives — over a synthetic module and returns
// the finished call graph, for asserting on fact construction and
// propagation directly.
func buildFixtureGraph(t *testing.T, files map[string]string) *Graph {
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
	pkgs, err := goList(dir, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	byPath := make(map[string]*listPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		return os.Open(byPath[path].Export)
	})
	dirs := newDirectiveIndex()
	b := newGraphBuilder(fset, dirs.allow)
	for _, lp := range pkgs {
		if lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue
		}
		u := &unit{lp: lp}
		if err := loadUnit(fset, imp, u); err != nil {
			t.Fatal(err)
		}
		for _, f := range u.files {
			parseDirectives(fset, f, dirs)
		}
		b.addPackage(u.files, u.info)
	}
	return b.finish()
}

// chainFixture is a three-package call chain whose leaf reads the wall
// clock: a.Top -> b.Mid -> c.Leaf -> time.Now.
var chainFixture = map[string]string{
	"c/c.go": `package c

import "time"

func Leaf() int64 { return time.Now().UnixNano() }
`,
	"b/b.go": `package b

import "fixture.example/m/c"

func Mid() int64 { return c.Leaf() }
`,
	"a/a.go": `package a

import "fixture.example/m/b"

func Top() int64 { return b.Mid() }
`,
}

func TestGraphPropagation(t *testing.T) {
	g := buildFixtureGraph(t, chainFixture)

	if g.DirectFacts("fixture.example/m/c.Leaf")&FactWallClock == 0 {
		t.Error("leaf is missing its direct wall-clock fact")
	}
	if g.DirectFacts("fixture.example/m/a.Top")&FactWallClock != 0 {
		t.Error("top reads no clock directly but carries a direct fact")
	}
	for _, id := range []string{"fixture.example/m/a.Top", "fixture.example/m/b.Mid"} {
		if g.TransFacts(id)&FactWallClock == 0 {
			t.Errorf("%s is missing the propagated wall-clock fact", id)
		}
	}

	steps, callPos, source := g.taintPath("fixture.example/m/a.Top", FactWallClock)
	if got := renderTaint(steps, source); !strings.HasPrefix(got, "a.Top -> b.Mid -> c.Leaf -> time.Now") {
		t.Errorf("taint path = %q, want a.Top -> b.Mid -> c.Leaf -> time.Now (...)", got)
	}
	if !callPos.IsValid() {
		t.Error("taint path lost the first call position")
	}
}

func TestGraphClockBoundary(t *testing.T) {
	files := map[string]string{
		"c/c.go": chainFixture["c/c.go"],
		"b/b.go": `package b

import "fixture.example/m/c"

// Mid converts the reading into virtual time.
//
//doelint:clockboundary -- fixture: converts wall readings to virtual time
func Mid() int64 { return c.Leaf() }
`,
		"a/a.go": chainFixture["a/a.go"],
	}
	g := buildFixtureGraph(t, files)

	if g.TransFacts("fixture.example/m/b.Mid")&FactWallClock == 0 {
		t.Error("the boundary's own transitive facts should keep the clock visible")
	}
	if g.TransFacts("fixture.example/m/a.Top")&FactWallClock != 0 {
		t.Error("clock fact leaked through a //doelint:clockboundary function")
	}
}

func TestGraphAllowMasksSource(t *testing.T) {
	files := map[string]string{
		"c/c.go": `package c

import "time"

func Leaf() int64 {
	return time.Now().UnixNano() //doelint:allow walltaint -- fixture: justified read
}
`,
		"b/b.go": chainFixture["b/b.go"],
		"a/a.go": chainFixture["a/a.go"],
	}
	g := buildFixtureGraph(t, files)
	for _, id := range []string{"fixture.example/m/c.Leaf", "fixture.example/m/a.Top"} {
		if g.TransFacts(id)&FactWallClock != 0 {
			t.Errorf("%s tainted by a source under a justified allow", id)
		}
	}
}

func TestGraphMethodIDs(t *testing.T) {
	g := buildFixtureGraph(t, map[string]string{
		"c/c.go": `package c

import "time"

type T struct{}

func (T) Value() int64 { return time.Now().UnixNano() }

func (*T) Pointer() int64 { return time.Now().UnixNano() }
`,
	})
	for _, id := range []string{"fixture.example/m/c.T.Value", "fixture.example/m/c.T.Pointer"} {
		if g.DirectFacts(id)&FactWallClock == 0 {
			t.Errorf("method node %s missing its direct fact (symbolic ID mismatch?)", id)
		}
	}
}
