package lint

import (
	"go/ast"
)

// analyzerGoleak flags goroutines that can never terminate: a `go` statement
// whose function literal contains an unconditioned `for { ... }` loop with no
// reachable exit — no return, no break bound to that loop, no Goexit/panic.
// In simulation packages every relay copier and per-connection handler loop
// is one of these shapes, and one missed error check turns it into a
// goroutine that outlives its connection. The chaos suite asserts goroutine
// counts at runtime; this check catches the same bug statically, at the
// loop that would leak.
var analyzerGoleak = &Analyzer{
	Name: "goleak",
	Doc:  "no exit-less infinite loops in goroutines of simulation packages",
	Run:  runGoleak,
}

func runGoleak(pass *Pass) {
	if !pass.Config.IsSimulation(pass.Pkg.Path()) {
		return
	}
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			lit, ok := g.Call.Fun.(*ast.FuncLit)
			if !ok {
				// `go method()` spawns named code; its loops are checked
				// wherever that function is declared as a goroutine body
				// elsewhere, and flagging every call site would double-report.
				return true
			}
			checkGoroutineBody(pass, lit.Body)
			return true
		})
	}
}

// checkGoroutineBody reports every exit-less infinite loop in a goroutine
// body, including loops inside nested function literals (they run on the
// same goroutine unless spawned with another `go`, which Inspect visits
// separately anyway).
func checkGoroutineBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		loop, ok := n.(*ast.ForStmt)
		if !ok {
			return true
		}
		if loop.Cond != nil {
			return true // `for cond {}` terminates when cond flips
		}
		if !loopCanExit(loop) {
			pass.Reportf(loop.Pos(),
				"infinite for loop in goroutine has no return or break; it leaks the goroutine when its work ends")
		}
		return true
	})
}

// loopCanExit reports whether an unconditioned for loop has a statement that
// leaves it: a return, an unlabeled break bound to this loop, a labeled
// break/goto (conservatively assumed to escape), or a call to panic,
// runtime.Goexit, os.Exit or (testing.T).Fatal*.
func loopCanExit(loop *ast.ForStmt) bool {
	exits := false
	// depth counts enclosing break targets between a statement and our
	// loop: nested for/range/switch/select capture unlabeled breaks.
	var walk func(n ast.Node, depth int)
	walk = func(n ast.Node, depth int) {
		if n == nil || exits {
			return
		}
		switch s := n.(type) {
		case *ast.FuncLit:
			return // its returns/breaks don't leave our loop
		case *ast.ReturnStmt:
			exits = true
			return
		case *ast.BranchStmt:
			if s.Label != nil {
				// Labeled break/continue/goto: the label may sit outside
				// the loop; assume it escapes rather than guess wrong.
				exits = true
				return
			}
			if s.Tok.String() == "break" && depth == 0 {
				exits = true
			}
			return
		case *ast.ExprStmt:
			if call, ok := s.X.(*ast.CallExpr); ok && callNeverReturns(call) {
				exits = true
				return
			}
		case *ast.ForStmt:
			walkChildren(s, depth+1, walk)
			return
		case *ast.RangeStmt:
			walkChildren(s, depth+1, walk)
			return
		case *ast.SwitchStmt:
			walkChildren(s, depth+1, walk)
			return
		case *ast.TypeSwitchStmt:
			walkChildren(s, depth+1, walk)
			return
		case *ast.SelectStmt:
			walkChildren(s, depth+1, walk)
			return
		}
		walkChildren(n, depth, walk)
	}
	walkChildren(loop.Body, 0, walk)
	return exits
}

// walkChildren visits the direct children of n with the given walker.
func walkChildren(n ast.Node, depth int, walk func(ast.Node, int)) {
	ast.Inspect(n, func(child ast.Node) bool {
		if child == nil || child == n {
			return child == n
		}
		walk(child, depth)
		return false // walk recurses itself; don't double-visit
	})
}

// callNeverReturns recognizes calls that terminate the goroutine (or the
// process) and therefore count as loop exits: panic, runtime.Goexit,
// os.Exit, log.Fatal*, and testing's t.Fatal*/t.Skip* (which call Goexit).
func callNeverReturns(call *ast.CallExpr) bool {
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if name == "Goexit" || name == "Exit" {
			return true
		}
		if name == "Fatal" || name == "Fatalf" || name == "Skip" ||
			name == "Skipf" || name == "SkipNow" || name == "FailNow" {
			return true
		}
	}
	return false
}
