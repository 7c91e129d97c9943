package lint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// listPackage is the subset of `go list -json` output the driver consumes.
type listPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
	DepOnly    bool
	Module     *listModule
	Error      *listError
}

type listModule struct {
	Path string
	Main bool
}

type listError struct {
	Err string
}

// unit is one main-module package moving through the driver: its metadata,
// and — once parsed — its syntax and type information. Root units (matched
// by a pattern) are analyzed and may report findings; dep-only units are
// walked solely to feed the call graph.
type unit struct {
	lp    *listPackage
	root  bool
	files []*ast.File
	tpkg  *types.Package
	info  *types.Info
}

// Run loads the packages matched by patterns (resolved by the go tool from
// dir), type-checks every package of the main module from source, builds
// the module-wide call graph with propagated facts, runs the enabled
// analyzers over the root packages, applies //doelint: directives, and
// returns the surviving findings sorted by position.
//
// Dependencies — standard library and module-internal alike — are imported
// from compiler export data produced by `go list -export`, so the whole
// module loads in well under a second and no dependency outside the
// standard library is needed. Main-module packages pulled in only as
// dependencies still contribute facts to the graph (that is the point of
// the interprocedural checks), but never report findings of their own.
func Run(dir string, patterns []string, cfg *Config) ([]Finding, error) {
	if cfg == nil {
		cfg = DefaultConfig()
	}
	if err := cfg.validateChecks(); err != nil {
		return nil, err
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}

	byPath := make(map[string]*listPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	fset := token.NewFileSet()
	imp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := byPath[path]
		if !ok || p.Export == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(p.Export)
	})

	var analyzers []*Analyzer
	for _, a := range registry {
		if cfg.checkEnabled(a.Name) {
			analyzers = append(analyzers, a)
		}
	}

	// Deduplicate: the same package can surface more than once when it is
	// matched by overlapping patterns or appears both as a root and as a
	// dependency of another root. One unit per import path, and it is a
	// root if any appearance was.
	units := make([]*unit, 0, len(pkgs))
	index := make(map[string]*unit, len(pkgs))
	for _, lp := range pkgs {
		if lp.Standard || lp.Module == nil || !lp.Module.Main {
			continue
		}
		if u, ok := index[lp.ImportPath]; ok {
			u.root = u.root || !lp.DepOnly
			continue
		}
		u := &unit{lp: lp, root: !lp.DepOnly}
		units = append(units, u)
		index[lp.ImportPath] = u
	}

	dirs := newDirectiveIndex()
	builder := newGraphBuilder(fset, dirs.allow)
	var findings []Finding
	roots := 0
	for _, u := range units {
		lp := u.lp
		if u.root {
			roots++
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("lint: %s: %s", lp.ImportPath, lp.Error.Err)
		}
		if err := loadUnit(fset, imp, u); err != nil {
			return nil, err
		}
		// Directives first: the graph builder consults allow cells while
		// computing facts, so a justified suppression at a source never
		// taints callers.
		for _, f := range u.files {
			bad := parseDirectives(fset, f, dirs)
			if u.root {
				findings = append(findings, bad...)
			}
		}
		builder.addPackage(u.files, u.info)
	}

	if roots == 0 {
		return nil, fmt.Errorf("lint: patterns %v matched no main-module packages in %s", patterns, dir)
	}

	graph := builder.finish()
	for _, u := range units {
		if !u.root {
			continue
		}
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     fset,
				Files:    u.files,
				Pkg:      u.tpkg,
				Info:     u.info,
				Config:   cfg,
				Graph:    graph,
				Dirs:     dirs,
				findings: &findings,
			}
			a.Run(pass)
		}
	}

	findings = dirs.allow.filter(findings)
	relativize(findings, dir)
	sortFindings(findings)
	findings = dedupeFindings(findings)
	return findings, nil
}

// loadUnit parses and type-checks one package from source.
func loadUnit(fset *token.FileSet, imp types.Importer, u *unit) error {
	files, err := parseFiles(fset, u.lp)
	if err != nil {
		return err
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	var typeErr error
	conf := types.Config{
		Importer: imp,
		Error: func(err error) {
			if typeErr == nil {
				typeErr = err
			}
		},
	}
	tpkg, _ := conf.Check(u.lp.ImportPath, fset, files, info)
	if typeErr != nil {
		return fmt.Errorf("lint: type-checking %s: %w", u.lp.ImportPath, typeErr)
	}
	u.files, u.tpkg, u.info = files, tpkg, info
	return nil
}

func sortFindings(findings []Finding) {
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Check != b.Check {
			return a.Check < b.Check
		}
		return a.Message < b.Message
	})
}

// dedupeFindings drops exact duplicates (same position, check, and
// message) from the sorted slice — the belt to the unit map's suspenders,
// and what keeps output stable if a future loader change reintroduces
// double-loaded packages.
func dedupeFindings(findings []Finding) []Finding {
	out := findings[:0]
	for i, f := range findings {
		if i > 0 {
			p := findings[i-1]
			if p.File == f.File && p.Line == f.Line && p.Col == f.Col &&
				p.Check == f.Check && p.Message == f.Message {
				continue
			}
		}
		out = append(out, f)
	}
	return out
}

// goList shells out to the go tool for package metadata and export data.
// The go tool is the one dependency a Go build already has; -export makes it
// write compiler export data for every listed package into the build cache
// and report the file paths, which is how the driver resolves imports
// without golang.org/x/tools.
func goList(dir string, patterns []string) ([]*listPackage, error) {
	args := append([]string{
		"list", "-e", "-export", "-deps",
		"-json=ImportPath,Dir,GoFiles,Export,Standard,DepOnly,Module,Error",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("lint: go list: %w\n%s", err, stderr.Bytes())
	}
	var pkgs []*listPackage
	dec := json.NewDecoder(&stdout)
	for {
		var p listPackage
		if err := dec.Decode(&p); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("lint: decoding go list output: %w", err)
		}
		pkgs = append(pkgs, &p)
	}
	return pkgs, nil
}

func parseFiles(fset *token.FileSet, lp *listPackage) ([]*ast.File, error) {
	files := make([]*ast.File, 0, len(lp.GoFiles))
	for _, name := range lp.GoFiles {
		path := filepath.Join(lp.Dir, name)
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("lint: %w", err)
		}
		files = append(files, f)
	}
	return files, nil
}

// relativize rewrites finding paths relative to dir when possible, for
// stable output independent of where the module happens to be checked out.
func relativize(findings []Finding, dir string) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return
	}
	for i := range findings {
		if rel, err := filepath.Rel(abs, findings[i].File); err == nil && !filepath.IsAbs(rel) &&
			rel != ".." && !((len(rel) > 2) && rel[:3] == ".."+string(filepath.Separator)) {
			findings[i].File = rel
		}
	}
}
