package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// The `//lint:<directive> <reason>` annotations are the suite's escape
// hatches. There are two, and each one is a reviewed assertion that must
// say why:
//
//   - `//lint:ordered` on a map/chan range: the iteration order does not
//     escape into simulation state (the body normalizes the order).
//   - `//lint:alloc` on a hot-path allocating construct: the allocation
//     is not steady-state (freelist warm-up, amortized growth, one-off
//     per-cycle coordinator cost already accounted in the baselines).
//
// An annotation attaches to the construct it precedes (its own line
// immediately above) or trails (same line as the construct).

// The recognized directives.
const (
	directiveOrdered = "ordered"
	directiveAlloc   = "alloc"
)

// Annotation is one parsed //lint:<directive> comment.
type Annotation struct {
	Pos       token.Pos
	Line      int
	Directive string
	Reason    string
}

// scanAnnotations indexes every //lint: comment per file by line. Called
// once, after Syntax is complete.
func (p *Package) scanAnnotations() {
	p.annotations = make(map[*ast.File]map[int][]*Annotation, len(p.Syntax))
	for _, f := range p.Syntax {
		byLine := make(map[int][]*Annotation)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:")
				if !ok {
					continue
				}
				directive, reason, _ := strings.Cut(text, " ")
				directive = strings.TrimSpace(directive)
				if directive != directiveOrdered && directive != directiveAlloc {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				byLine[line] = append(byLine[line], &Annotation{
					Pos:       c.Pos(),
					Line:      line,
					Directive: directive,
					Reason:    strings.TrimSpace(reason),
				})
			}
		}
		p.annotations[f] = byLine
	}
}

// annotationAt returns the directive's annotation attached to a
// construct on the given line: one on the line itself (trailing comment)
// or on the line directly above (leading comment).
func (p *Package) annotationAt(f *ast.File, line int, directive string) *Annotation {
	byLine := p.annotations[f]
	if byLine == nil {
		return nil
	}
	for _, a := range byLine[line] {
		if a.Directive == directive {
			return a
		}
	}
	for _, a := range byLine[line-1] {
		if a.Directive == directive {
			return a
		}
	}
	return nil
}

// orderedFor returns the //lint:ordered annotation attached to a range
// statement.
func (p *Package) orderedFor(f *ast.File, rs *ast.RangeStmt) *Annotation {
	return p.annotationAt(f, p.Fset.Position(rs.For).Line, directiveOrdered)
}
