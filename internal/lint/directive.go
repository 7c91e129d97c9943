package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// directivePrefix introduces every doelint control comment.
const directivePrefix = "//doelint:"

// allowKey identifies one suppressed (file, line, check) cell.
type allowKey struct {
	file  string
	line  int
	check string
}

// allowSet records which findings //doelint:allow directives suppress.
type allowSet map[allowKey]bool

// covers reports whether an allow directive suppresses check on the source
// line of pos.
func (a allowSet) covers(fset *token.FileSet, pos token.Pos, check string) bool {
	p := fset.Position(pos)
	return a[allowKey{p.Filename, p.Line, check}]
}

// lineKey identifies one (file, line) cell for line-scoped directives.
type lineKey struct {
	file string
	line int
}

// directiveIndex aggregates every parsed directive of a run: allow cells,
// and the ownership-transfer cells the bufown analyzer consults.
type directiveIndex struct {
	allow    allowSet
	transfer map[lineKey]bool
}

func newDirectiveIndex() *directiveIndex {
	return &directiveIndex{
		allow:    allowSet{},
		transfer: map[lineKey]bool{},
	}
}

// transferAt reports whether an ownership-transfer directive covers the
// given position: it trails that line, or stands alone on the line above.
func (d *directiveIndex) transferAt(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	return d.transfer[lineKey{p.Filename, p.Line}]
}

// parseDirectives scans a file's comments for doelint directives, records
// them into idx, and returns findings for malformed directives. The
// accepted forms are
//
//	//doelint:allow <check>[,<check>...] -- <justification>
//	//doelint:transfer -- <justification>
//	//doelint:hotpath
//	//doelint:streaming
//	//doelint:clockboundary -- <justification>
//	//doelint:ctxroot -- <justification>
//
// allow and transfer are line-scoped: a directive that trails code covers
// that line only, and a directive alone on its line covers the line below.
// hotpath, streaming, clockboundary, and ctxroot go in a function's doc
// comment and mark the whole declaration.
// Justifications are mandatory where shown: suppressions and ownership
// claims must explain themselves to survive review.
func parseDirectives(fset *token.FileSet, f *ast.File, idx *directiveIndex) []Finding {
	var bad []Finding
	report := func(pos token.Pos, format string, args ...any) {
		p := fset.Position(pos)
		bad = append(bad, Finding{
			File:    p.Filename,
			Line:    p.Line,
			Col:     p.Column,
			Check:   DirectiveCheck,
			Message: fmt.Sprintf(format, args...),
			abs:     p.Filename,
		})
	}
	var code map[int]bool // lines holding code; built on the first line-scoped directive
	target := func(c *ast.Comment) lineKey {
		if code == nil {
			code = codeLines(fset, f)
		}
		p := fset.Position(c.Pos())
		if !code[p.Line] {
			p.Line++
		}
		return lineKey{p.Filename, p.Line}
	}
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if !strings.HasPrefix(c.Text, directivePrefix) {
				continue
			}
			rest := strings.TrimPrefix(c.Text, directivePrefix)
			verb, arg, _ := strings.Cut(rest, " ")
			switch verb {
			case "hotpath":
				// Consumed by the hotalloc analyzer and the facts engine:
				// marks the function whose doc comment carries it as an
				// allocation-free hot path. The directive takes no
				// arguments.
				if strings.TrimSpace(arg) != "" {
					report(c.Pos(), "doelint:hotpath takes no arguments")
				}
			case "streaming":
				// Consumed by the streaming analyzer: marks the function
				// whose doc comment carries it as a population-streaming
				// fold whose memory must stay O(workers·accumulator) — it
				// must not append per-item results into a slice that grows
				// with the campaign population. Takes no arguments.
				if strings.TrimSpace(arg) != "" {
					report(c.Pos(), "doelint:streaming takes no arguments")
				}
			case "clockboundary", "ctxroot":
				// Function-doc directives consumed by walltaint and
				// ctxplumb. Like suppressions, they must carry a
				// justification: a clock boundary asserts it converts wall
				// readings into virtual time, a context root asserts it is
				// a legitimate place for a context tree to start.
				if _, why, found := strings.Cut(arg, "--"); !found || strings.TrimSpace(why) == "" {
					report(c.Pos(), "doelint:%s needs a justification: //doelint:%s -- <why>", verb, verb)
				}
			case "transfer":
				// Line-scoped ownership transfer consumed by bufown: the
				// pooled buffer acquired or escaping on this line is
				// deliberately handed to another owner.
				if _, why, found := strings.Cut(arg, "--"); !found || strings.TrimSpace(why) == "" {
					report(c.Pos(), "doelint:transfer needs a justification: //doelint:transfer -- <who owns it now>")
					continue
				}
				idx.transfer[target(c)] = true
			case "allow":
				checksPart, justification, found := strings.Cut(arg, "--")
				if !found || strings.TrimSpace(justification) == "" {
					report(c.Pos(), "doelint:allow needs a justification: //doelint:allow <check> -- <why>")
					continue
				}
				line := target(c)
				for _, name := range strings.Split(strings.TrimSpace(checksPart), ",") {
					name = strings.TrimSpace(name)
					if name == "" || !knownCheck(name) {
						report(c.Pos(), "doelint:allow names unknown check %q", name)
						continue
					}
					if name == DirectiveCheck {
						report(c.Pos(), "the %q check cannot be suppressed", DirectiveCheck)
						continue
					}
					idx.allow[allowKey{line.file, line.line, name}] = true
				}
			default:
				report(c.Pos(), "unknown doelint directive %q (defined: \"allow\", \"hotpath\", \"streaming\", \"transfer\", \"clockboundary\", \"ctxroot\")", verb)
			}
		}
	}
	return bad
}

// codeLines reports which lines of f hold code rather than only comments:
// every line on which a syntax node starts or ends.
func codeLines(fset *token.FileSet, f *ast.File) map[int]bool {
	lines := make(map[int]bool)
	ast.Inspect(f, func(n ast.Node) bool {
		switch n.(type) {
		case nil, *ast.CommentGroup:
			return false
		}
		lines[fset.Position(n.Pos()).Line] = true
		lines[fset.Position(n.End()).Line] = true
		return true
	})
	return lines
}

// filter drops findings covered by an allow directive. Directive findings
// themselves are never suppressible.
func (a allowSet) filter(findings []Finding) []Finding {
	kept := findings[:0]
	for _, f := range findings {
		if f.Check != DirectiveCheck && a[allowKey{f.abs, f.Line, f.Check}] {
			continue
		}
		kept = append(kept, f)
	}
	return kept
}
