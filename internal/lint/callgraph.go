package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// This file is the interprocedural half of doelint: a module-wide static
// call graph over the already type-checked packages, with per-function
// facts propagated transitively. The intraprocedural analyzers see one
// function at a time; walltaint, bufown's handoff rule, and hotalloc v2
// consult the graph to see across function and package boundaries.
//
// The graph is deliberately an under-approximation: only statically
// resolvable calls (package-level functions and concrete methods) become
// edges. Calls through interfaces, function values, and reflection are
// invisible, so interprocedural findings never rest on a speculative edge
// — the cost is that taint routed exclusively through an interface is not
// seen. Closure bodies are folded into their enclosing declaration: a fact
// inside a function literal charges the function that wrote it.

// Fact is one bit of behavior a function exhibits directly or — after
// propagation — transitively through its callees.
type Fact uint8

const (
	// FactWallClock: reads, schedules against or blocks on the wall clock
	// (the time functions in walltaint's timeFacts).
	FactWallClock Fact = 1 << iota
	// FactGlobalRand: draws from the global math/rand generator.
	FactGlobalRand
	// FactAlloc: allocates per call in the patterns the hotalloc contract
	// bans — make([]byte, ...) or fmt.Sprintf.
	FactAlloc
	// FactTakesContext: the signature accepts a context.Context.
	FactTakesContext
	// FactStoresContext: writes a context.Context into a struct field or
	// composite literal.
	FactStoresContext
	// FactBufGet: obtains a pooled buffer via bufpool.Get.
	FactBufGet
	// FactBufPut: returns a pooled buffer via bufpool.Put.
	FactBufPut
	// FactBlock: blocks the goroutine on real time (time.Sleep,
	// time.After).
	FactBlock
)

// clockFacts are the facts a //doelint:clockboundary annotation absorbs.
const clockFacts = FactWallClock | FactGlobalRand | FactBlock

// edge is one statically resolved call site.
type edge struct {
	callee string // symbolic ID of the called function
	pos    token.Pos
}

// factSource records where a direct fact was introduced, for path-tailed
// finding messages ("... -> time.Now (netsim/clock.go:41)").
type factSource struct {
	what   string // e.g. "time.Now", "rand.Intn", "make([]byte)"
	posStr string
}

// funcNode is one function in the graph.
type funcNode struct {
	id     string
	direct FactSet
	trans  FactSet
	edges  []edge
	// sources holds the first direct source per fact bit.
	sources map[Fact]factSource
	// hotpath: //doelint:hotpath — steady-state body must not churn the
	// allocator; alloc facts do not propagate through it (its own
	// discipline is enforced at its own declaration).
	hotpath bool
	// clockBoundary: //doelint:clockboundary — converts wall readings to
	// virtual time; clock facts do not propagate through it.
	clockBoundary bool
}

// FactSet is a bitmask of Facts.
type FactSet = Fact

// Graph is the module-wide call graph with propagated facts.
type Graph struct {
	nodes map[string]*funcNode
	// order preserves deterministic iteration (insertion order).
	order []string
}

// node returns the graph node for id, or nil.
func (g *Graph) node(id string) *funcNode {
	if g == nil {
		return nil
	}
	return g.nodes[id]
}

// Contribution is what a callee passes up to its caller: its transitive
// facts minus whatever its annotations absorb.
func (n *funcNode) contribution() FactSet {
	f := n.trans
	if n.clockBoundary {
		f &^= clockFacts
	}
	if n.hotpath {
		f &^= FactAlloc
	}
	return f
}

// TransFacts reports the propagated fact set for the function with the
// given symbolic ID (zero if unknown).
func (g *Graph) TransFacts(id string) FactSet {
	if n := g.node(id); n != nil {
		return n.trans
	}
	return 0
}

// DirectFacts reports the locally computed fact set for id.
func (g *Graph) DirectFacts(id string) FactSet {
	if n := g.node(id); n != nil {
		return n.direct
	}
	return 0
}

// funcID builds the symbolic, package-qualified identity of a function:
// "path.Func" for package-level functions, "path.Type.Method" for methods
// (pointer receivers collapse onto the type). The empty string means the
// function cannot anchor a graph node (interface method, builtin).
func funcID(fn *types.Func) string {
	pkg := fn.Pkg()
	if pkg == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return ""
	}
	if recv := sig.Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "" // interface or anonymous receiver: not resolvable
		}
		if _, isIface := named.Underlying().(*types.Interface); isIface {
			return ""
		}
		return pkg.Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return pkg.Path() + "." + fn.Name()
}

// graphBuilder accumulates nodes while packages are walked.
type graphBuilder struct {
	g     *Graph
	fset  *token.FileSet
	allow allowSet
}

func newGraphBuilder(fset *token.FileSet, allow allowSet) *graphBuilder {
	return &graphBuilder{
		g:     &Graph{nodes: make(map[string]*funcNode)},
		fset:  fset,
		allow: allow,
	}
}

// ensure returns the node for id, creating it on first sight.
func (b *graphBuilder) ensure(id string) *funcNode {
	if n := b.g.nodes[id]; n != nil {
		return n
	}
	n := &funcNode{id: id, sources: make(map[Fact]factSource)}
	b.g.nodes[id] = n
	b.g.order = append(b.g.order, id)
	return n
}

// addPackage walks one type-checked package and records a node per
// function declaration, with direct facts and call edges.
func (b *graphBuilder) addPackage(files []*ast.File, info *types.Info) {
	for _, file := range files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil || fn.Name.Name == "_" {
				continue
			}
			obj, ok := info.Defs[fn.Name].(*types.Func)
			if !ok {
				continue
			}
			id := funcID(obj)
			if id == "" {
				continue
			}
			node := b.ensure(id)
			node.hotpath = node.hotpath || hasFuncDirective(fn, "hotpath")
			node.clockBoundary = node.clockBoundary || hasFuncDirective(fn, "clockboundary")
			if sigTakesContext(obj) {
				b.mark(node, FactTakesContext, "context.Context parameter", fn.Pos())
			}
			b.walkBody(node, fn.Body, info)
		}
	}
}

// mark records the direct facts in f, each with its first source position.
func (b *graphBuilder) mark(n *funcNode, f Fact, what string, pos token.Pos) {
	for rest := f &^ n.direct; rest != 0; rest &= rest - 1 {
		n.sources[rest&^(rest-1)] = factSource{what: what, posStr: shortPos(b.fset.Position(pos))}
	}
	n.direct |= f
}

// shortPos renders a position with the file path trimmed to its last two
// segments, keeping path-independent messages.
func shortPos(p token.Position) string {
	file := p.Filename
	parts := strings.Split(file, "/")
	if len(parts) > 2 {
		file = strings.Join(parts[len(parts)-2:], "/")
	}
	return fmt.Sprintf("%s:%d", file, p.Line)
}

// walkBody collects direct facts and call edges from a function body,
// descending into function literals (their behavior charges the
// declaration that contains them).
func (b *graphBuilder) walkBody(node *funcNode, body *ast.BlockStmt, info *types.Info) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.CallExpr:
			b.recordCall(node, x, info)
		case *ast.AssignStmt:
			for i, lhs := range x.Lhs {
				if _, ok := lhs.(*ast.SelectorExpr); !ok {
					continue
				}
				if i < len(x.Rhs) && isContextType(info.TypeOf(x.Rhs[i])) {
					b.mark(node, FactStoresContext, "context stored in field", x.Pos())
				}
			}
		case *ast.CompositeLit:
			t := info.TypeOf(x)
			if t == nil {
				return true
			}
			if _, ok := t.Underlying().(*types.Struct); !ok {
				return true
			}
			for _, elt := range x.Elts {
				val := elt
				if kv, ok := elt.(*ast.KeyValueExpr); ok {
					val = kv.Value
				}
				if isContextType(info.TypeOf(val)) {
					b.mark(node, FactStoresContext, "context stored in composite literal", val.Pos())
				}
			}
		}
		return true
	})
}

// recordCall classifies one call expression: primitive fact, edge to a
// module function, or nothing (unresolvable).
func (b *graphBuilder) recordCall(node *funcNode, call *ast.CallExpr, info *types.Info) {
	if fn := calleeFunc(info, call); fn != nil {
		b.addEdgeOrFact(node, fn, call.Pos())
		return
	}
	if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
		if _, builtin := info.Uses[id].(*types.Builtin); builtin && isByteSlice(info.TypeOf(call)) &&
			!b.allow.covers(b.fset, call.Pos(), "hotalloc") {
			b.mark(node, FactAlloc, "make([]byte)", call.Pos())
		}
	}
}

// calleeFunc resolves the function or method a call names statically, or
// returns nil (builtins, conversions, calls through function values).
func calleeFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	var obj types.Object
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		obj = info.Uses[fun]
	case *ast.SelectorExpr:
		if sel := info.Selections[fun]; sel != nil {
			obj = sel.Obj()
		} else {
			obj = info.Uses[fun.Sel] // qualified call: pkg.Func
		}
	}
	fn, _ := obj.(*types.Func)
	return fn
}

// addEdgeOrFact turns a resolved callee into a primitive fact (standard
// library sources) or a call edge (module functions).
func (b *graphBuilder) addEdgeOrFact(node *funcNode, fn *types.Func, pos token.Pos) {
	pkg := fn.Pkg()
	if pkg == nil {
		return
	}
	switch pkg.Path() {
	case "time", "math/rand", "math/rand/v2":
		// Fact sources under an allow directive do not taint callers: the
		// justification at the source covers the whole chain.
		if f := clockCall(fn); f != 0 && !b.allow.covers(b.fset, pos, "walltaint") {
			b.mark(node, f, pkg.Name()+"."+fn.Name(), pos)
		}
		return
	case "fmt":
		if fn.Name() == "Sprintf" && !b.allow.covers(b.fset, pos, "hotalloc") {
			b.mark(node, FactAlloc, "fmt.Sprintf", pos)
		}
		return
	}
	if isBufpoolPath(pkg.Path()) {
		switch fn.Name() {
		case "Get":
			b.mark(node, FactBufGet, "bufpool.Get", pos)
		case "Put":
			b.mark(node, FactBufPut, "bufpool.Put", pos)
		}
		// bufpool's own internals still form edges so its (allow-masked)
		// allocations stay visible to the propagation machinery.
	}
	id := funcID(fn)
	if id == "" || node.id == id {
		return
	}
	for _, e := range node.edges {
		if e.callee == id {
			return // keep the first call site per callee: stable paths
		}
	}
	node.edges = append(node.edges, edge{callee: id, pos: pos})
}

// isBufpoolPath reports whether path is the module's buffer pool package.
func isBufpoolPath(path string) bool {
	return path == "bufpool" || strings.HasSuffix(path, "/bufpool")
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// sigTakesContext reports whether the function's signature has a
// context.Context parameter.
func sigTakesContext(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	params := sig.Params()
	for i := 0; i < params.Len(); i++ {
		if isContextType(params.At(i).Type()) {
			return true
		}
	}
	return false
}

// finish propagates facts to a fixpoint and returns the graph. Facts flow
// callee → caller; a callee's contribution is masked by its annotations
// (clockboundary absorbs clock facts, hotpath absorbs alloc facts).
// Edges to functions outside the graph (other modules) contribute nothing.
func (b *graphBuilder) finish() *Graph {
	g := b.g
	for _, id := range g.order {
		g.nodes[id].trans = g.nodes[id].direct
	}
	for changed := true; changed; {
		changed = false
		for _, id := range g.order {
			n := g.nodes[id]
			for _, e := range n.edges {
				callee := g.nodes[e.callee]
				if callee == nil {
					continue
				}
				if add := callee.contribution() &^ n.trans; add != 0 {
					n.trans |= add
					changed = true
				}
			}
		}
	}
	return g
}

// taintStep finds the first call edge of n through which fact arrives,
// in source order — deterministic because edges are recorded in walk order.
func (n *funcNode) taintStep(g *Graph, fact Fact) (edge, *funcNode) {
	for _, e := range n.edges {
		callee := g.nodes[e.callee]
		if callee != nil && callee.contribution()&fact != 0 {
			return e, callee
		}
	}
	return edge{}, nil
}

// taintPath reconstructs a call chain from id down to the direct source of
// fact: the returned steps name successive callees, and source describes
// the primitive read at the end. The chain follows first-edge-in-source-
// order at every hop, so it is stable across runs.
func (g *Graph) taintPath(id string, fact Fact) (steps []string, callPos token.Pos, source factSource) {
	n := g.node(id)
	if n == nil {
		return nil, token.NoPos, factSource{}
	}
	steps = append(steps, displayName(n.id))
	seen := map[string]bool{n.id: true}
	for n.direct&fact == 0 {
		e, callee := n.taintStep(g, fact)
		if callee == nil || seen[callee.id] {
			break
		}
		if callPos == token.NoPos {
			callPos = e.pos
		}
		steps = append(steps, displayName(callee.id))
		seen[callee.id] = true
		n = callee
	}
	return steps, callPos, n.sources[fact]
}

// displayName trims a symbolic ID to its last package segment for
// readable path messages: "a.example/m/util.Helper" -> "util.Helper".
func displayName(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}

// renderTaint builds the canonical "A -> B -> time.Now (file:line)" chain.
func renderTaint(steps []string, source factSource) string {
	chain := strings.Join(steps, " -> ")
	if source.what == "" {
		return chain
	}
	return fmt.Sprintf("%s -> %s (%s)", chain, source.what, source.posStr)
}

// hasFuncDirective reports whether the declaration's doc comment carries
// the given doelint directive verb.
func hasFuncDirective(fn *ast.FuncDecl, verb string) bool {
	if fn.Doc == nil {
		return false
	}
	want := directivePrefix + verb
	for _, c := range fn.Doc.List {
		if c.Text == want || strings.HasPrefix(c.Text, want+" ") {
			return true
		}
	}
	return false
}
