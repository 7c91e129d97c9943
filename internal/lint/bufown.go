package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// analyzerBufown enforces the bufpool ownership contract (DESIGN.md §9):
// every buffer acquired with bufpool.Get must reach a bufpool.Put on every
// return path of the owning function, or be handed to a new owner through
// an explicitly annotated transfer (//doelint:transfer -- <who owns it
// now>). A handoff to a helper whose transitive facts include bufpool.Put
// discharges the obligation without an annotation — the call graph proves
// the buffer comes back to the pool. Using the buffer (or an alias of it)
// after an executed Put is always a finding: the pool may have re-issued
// the memory to another goroutine.
//
// The check is lexical like connclose — a Put in an earlier branch
// satisfies a later return — but unlike connclose, error-guarded returns
// are NOT exempt: a pooled buffer is live the instant Get returns, so an
// early error return without Put is precisely the leak this check exists
// to catch.
var analyzerBufown = &Analyzer{
	Name: "bufown",
	Doc:  "bufpool.Get must reach Put on all return paths (or an annotated //doelint:transfer); no use after Put",
	Run:  runBufown,
}

func runBufown(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch fn := n.(type) {
			case *ast.FuncDecl:
				if fn.Body != nil {
					checkBufFunc(pass, fn.Body)
				}
			case *ast.FuncLit:
				checkBufFunc(pass, fn.Body)
			}
			return true
		})
	}
}

// isBufpoolFunc resolves a call to the module's bufpool package and
// reports whether it is the named function.
func isBufpoolFunc(pass *Pass, call *ast.CallExpr, name string) bool {
	fn := calleeFunc(pass.Info, call)
	return fn != nil && fn.Pkg() != nil && isBufpoolPath(fn.Pkg().Path()) && fn.Name() == name
}

// bufAcq is one tracked bufpool.Get whose result landed in a local.
type bufAcq struct {
	obj  types.Object
	pos  token.Pos
	name string
}

// putSite is one executed (non-deferred) bufpool.Put with the lexical
// range it poisons for subsequent uses.
type putSite struct {
	pos       token.Pos
	poisonEnd token.Pos
}

// bufUses partitions the uses of one acquired buffer.
type bufUses struct {
	puts      []putSite
	deferPuts []token.Pos
	handoffs  []token.Pos // annotated transfers and proven pool-returning calls
	reacqs    []token.Pos // v = bufpool.Get(...) reassignments reset the poison
	plainUses []token.Pos // reads/writes through the buffer (use-after-put candidates)
	reported  []token.Pos // uses already reported inline (bad handoffs, unannotated escapes)
}

func checkBufFunc(pass *Pass, body *ast.BlockStmt) {
	acqs, escapes := findBufAcquisitions(pass, body)
	// A Get whose result never lands in a local has already escaped at the
	// acquisition itself (composite literal, field store, call argument):
	// ownership leaves this function on line one, so the line must carry a
	// transfer annotation.
	for _, pos := range escapes {
		if !pass.Dirs.transferAt(pass.Fset, pos) {
			pass.Reportf(pos,
				"bufpool.Get escapes at acquisition without an ownership annotation; Put it in this function or annotate //doelint:transfer -- <who owns it now>")
		}
	}
	for _, acq := range acqs {
		uses := collectBufUses(pass, body, acq)
		// A use already reported inline (bad handoff, unannotated escape)
		// counts as discharged here: one finding per defect, not two.
		discharged := len(uses.puts) > 0 || len(uses.deferPuts) > 0 ||
			len(uses.handoffs) > 0 || len(uses.reported) > 0
		if !discharged {
			pass.Reportf(acq.pos,
				"%s acquired from bufpool.Get is never returned to the pool (no Put, no annotated transfer)", acq.name)
			continue
		}
		if len(uses.deferPuts) == 0 {
			for _, ret := range collectBufReturns(body, acq.pos) {
				if !anyPutBefore(uses, ret.End()) {
					pass.Reportf(ret.Pos(),
						"return without bufpool.Put(%s) (acquired at line %d) and no deferred Put pending — pooled buffers leak on early returns",
						acq.name, pass.Fset.Position(acq.pos).Line)
					break // one report per acquisition keeps the signal readable
				}
			}
		}
		reportUseAfterPut(pass, acq, uses)
	}
}

func anyPutBefore(uses bufUses, limit token.Pos) bool {
	for _, p := range uses.puts {
		if p.pos < limit {
			return true
		}
	}
	for _, p := range uses.handoffs {
		if p < limit {
			return true
		}
	}
	return false
}

// findBufAcquisitions scans this function's own statements (not nested
// literals) for bufpool.Get calls, splitting them into tracked locals and
// escapes-at-acquisition.
func findBufAcquisitions(pass *Pass, body *ast.BlockStmt) (acqs []bufAcq, escapes []token.Pos) {
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		stack = append(stack, n)
		call, ok := n.(*ast.CallExpr)
		if !ok || !isBufpoolFunc(pass, call, "Get") {
			return true
		}
		if as, ok := parentAt(stack, 1).(*ast.AssignStmt); ok {
			for i, rhs := range as.Rhs {
				if rhs != ast.Expr(call) || i >= len(as.Lhs) {
					continue
				}
				if id, ok := as.Lhs[i].(*ast.Ident); ok && id.Name != "_" {
					if obj := pass.objectOf(id); obj != nil {
						acqs = append(acqs, bufAcq{obj: obj, pos: call.Pos(), name: id.Name})
						return true
					}
				}
			}
		}
		escapes = append(escapes, call.Pos())
		return true
	})
	return acqs, escapes
}

func collectBufUses(pass *Pass, body *ast.BlockStmt, acq bufAcq) bufUses {
	var uses bufUses
	var stack []ast.Node
	ast.Inspect(body, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		id, ok := n.(*ast.Ident)
		if !ok || id.Pos() < acq.pos {
			return true
		}
		if pass.Info.Uses[id] != acq.obj && pass.Info.Defs[id] != acq.obj {
			return true
		}
		classifyBufUse(pass, &uses, stack, id)
		return true
	})
	return uses
}

// classifyBufUse walks outward from one identifier use and files it into
// the right bucket.
func classifyBufUse(pass *Pass, uses *bufUses, stack []ast.Node, id *ast.Ident) {
	parent := parentAt(stack, 1)

	// v = bufpool.Get(...) reassignment: a fresh obligation, not a use.
	if as, ok := parent.(*ast.AssignStmt); ok {
		for i, lhs := range as.Lhs {
			if lhs == ast.Expr(id) && i < len(as.Rhs) {
				if call, ok := as.Rhs[i].(*ast.CallExpr); ok && isBufpoolFunc(pass, call, "Get") {
					uses.reacqs = append(uses.reacqs, id.Pos())
					return
				}
			}
		}
	}

	// Dereference, slice, or index through the buffer: a read or write of
	// the bytes, never an ownership event — but it is a use for the
	// use-after-put rule.
	switch parent.(type) {
	case *ast.StarExpr, *ast.SliceExpr, *ast.IndexExpr, *ast.UnaryExpr:
		uses.plainUses = append(uses.plainUses, id.Pos())
		return
	}

	// The pointer itself as a call argument.
	if call, ok := enclosingCallArg(stack, id); ok {
		if isBufpoolFunc(pass, call, "Put") {
			if underDefer(stack) {
				uses.deferPuts = append(uses.deferPuts, id.Pos())
			} else if goroutineCapture(stack) {
				uses.handoffs = append(uses.handoffs, id.Pos())
			} else {
				uses.puts = append(uses.puts, putSite{
					pos:       call.Pos(),
					poisonEnd: poisonEnd(stack, call),
				})
			}
			return
		}
		if calleePutsBuffer(pass, call) || pass.Dirs.transferAt(pass.Fset, id.Pos()) {
			uses.handoffs = append(uses.handoffs, id.Pos())
			return
		}
		pass.Reportf(id.Pos(),
			"pooled buffer %s handed to %s, which never returns it to the pool; Put it here or annotate //doelint:transfer -- <who owns it now>",
			id.Name, calleeName(call))
		uses.reported = append(uses.reported, id.Pos())
		return
	}

	// Ownership-moving positions: return, struct/composite storage,
	// channel send, goroutine capture. All need an annotated transfer.
	if escapesOwnership(stack, id) {
		if pass.Dirs.transferAt(pass.Fset, id.Pos()) {
			uses.handoffs = append(uses.handoffs, id.Pos())
			return
		}
		pass.Reportf(id.Pos(),
			"pooled buffer %s escapes this function (stored, returned, or sent) without an ownership annotation; annotate //doelint:transfer -- <who owns it now>",
			id.Name)
		uses.reported = append(uses.reported, id.Pos())
		return
	}
	uses.plainUses = append(uses.plainUses, id.Pos())
}

// enclosingCallArg reports the call for which the identifier itself (not a
// projection of it) is an argument.
func enclosingCallArg(stack []ast.Node, id *ast.Ident) (*ast.CallExpr, bool) {
	var child ast.Node = id
	for i := len(stack) - 2; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ParenExpr:
			child = anc
			continue
		case *ast.CallExpr:
			if anc.Fun == child {
				return nil, false
			}
			for _, arg := range anc.Args {
				if arg == child {
					return anc, true
				}
			}
			return nil, false
		default:
			return nil, false
		}
	}
	return nil, false
}

// calleePutsBuffer consults the call graph: a helper whose transitive
// facts include bufpool.Put is a proven ownership sink.
func calleePutsBuffer(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass.Info, call)
	if pass.Graph == nil || fn == nil {
		return false
	}
	return pass.Graph.TransFacts(funcID(fn))&FactBufPut != 0
}

// escapesOwnership reports whether a bare identifier use moves the buffer
// out of this function's hands: return, composite literal, field store,
// channel send, or capture in a go-launched closure.
func escapesOwnership(stack []ast.Node, id *ast.Ident) bool {
	if goroutineCapture(stack) {
		return true
	}
	var child ast.Node = id
	for i := len(stack) - 2; i >= 0; i-- {
		switch anc := stack[i].(type) {
		case *ast.ParenExpr:
		case *ast.CompositeLit, *ast.KeyValueExpr:
			return true
		case *ast.ReturnStmt, *ast.SendStmt:
			return true
		case *ast.AssignStmt:
			for j, rhs := range anc.Rhs {
				if rhs != child {
					continue
				}
				if j < len(anc.Lhs) {
					if _, ok := anc.Lhs[j].(*ast.Ident); ok {
						return false // plain local alias: ownership stays here
					}
				}
				return true // stored through a selector or index: escapes
			}
			return false
		case ast.Stmt, ast.Decl:
			return false
		}
		child = stack[i]
	}
	return false
}

// poisonEnd computes how far past an executed Put subsequent uses are
// unreachable-safe: when the statements following the Put in its own block
// end in a terminator (return/branch/panic), control rejoins the outer
// code without the buffer, so only the rest of that block is poisoned.
// Otherwise the poison extends to the end of the function.
func poisonEnd(stack []ast.Node, put *ast.CallExpr) token.Pos {
	var innerBlock *ast.BlockStmt
	var stmtInBlock ast.Stmt
	for i := len(stack) - 1; i >= 0; i-- {
		if blk, ok := stack[i].(*ast.BlockStmt); ok {
			innerBlock = blk
			if i+1 < len(stack) {
				stmtInBlock, _ = stack[i+1].(ast.Stmt)
			}
			break
		}
	}
	if innerBlock == nil || stmtInBlock == nil {
		return token.Pos(^uint(0) >> 1) // no block found: poison everything after
	}
	started := false
	for _, st := range innerBlock.List {
		if st == stmtInBlock {
			started = true
		}
		if !started {
			continue
		}
		switch s := st.(type) {
		case *ast.ReturnStmt, *ast.BranchStmt:
			return innerBlock.End()
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
					return innerBlock.End()
				}
			}
		}
	}
	return token.Pos(^uint(0) >> 1)
}

// reportUseAfterPut flags the first use of the buffer inside a Put's
// poison range — the pool may already have re-issued the memory.
func reportUseAfterPut(pass *Pass, acq bufAcq, uses bufUses) {
	for _, put := range uses.puts {
		for _, use := range uses.plainUses {
			if use <= put.pos || use >= put.poisonEnd {
				continue
			}
			if reacquiredBetween(uses.reacqs, put.pos, use) {
				continue
			}
			pass.Reportf(use,
				"%s used after bufpool.Put (line %d); the pool may have re-issued this memory",
				acq.name, pass.Fset.Position(put.pos).Line)
			return
		}
	}
}

func reacquiredBetween(reacqs []token.Pos, after, before token.Pos) bool {
	for _, r := range reacqs {
		if r > after && r < before {
			return true
		}
	}
	return false
}

// collectBufReturns gathers this function's returns after the acquisition.
// Unlike connclose there is no error-guard exemption: Get cannot fail, so
// the buffer is live on every path.
func collectBufReturns(body *ast.BlockStmt, after token.Pos) []*ast.ReturnStmt {
	var rets []*ast.ReturnStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if ret, ok := n.(*ast.ReturnStmt); ok && ret.Pos() > after {
			rets = append(rets, ret)
		}
		return true
	})
	return rets
}
