package lint

import (
	"go/ast"
	"go/token"
	"strings"
)

// `//lint:alloc <reason>` is the suite's one escape hatch: on a hot-path
// allocating construct it is a reviewed assertion that the allocation is
// not steady-state (freelist warm-up, amortized growth, one-off
// per-cycle coordinator cost already accounted in the baselines), and it
// must say why. It attaches to the construct it precedes (its own line
// immediately above) or trails (same line as the construct). allocfree
// vets every annotation: one with no reason, or one that suppresses
// nothing, is a finding.

// directiveAlloc is the recognized directive.
const directiveAlloc = "//lint:alloc"

// Annotation is one parsed //lint:alloc comment.
type Annotation struct {
	Pos    token.Pos
	Reason string
}

// scanAnnotations indexes every //lint:alloc comment per file by line.
// Called once, after Syntax is complete.
func (p *Package) scanAnnotations() {
	p.annotations = make(map[*ast.File]map[int]*Annotation, len(p.Syntax))
	for _, f := range p.Syntax {
		byLine := make(map[int]*Annotation)
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, directiveAlloc)
				if !ok || (rest != "" && rest[0] != ' ') {
					continue
				}
				line := p.Fset.Position(c.Pos()).Line
				byLine[line] = &Annotation{Pos: c.Pos(), Reason: strings.TrimSpace(rest)}
			}
		}
		p.annotations[f] = byLine
	}
}

// allocAnnotationAt returns the annotation attached to a construct on the
// given line: one on the line itself (trailing comment) or on the line
// directly above (leading comment).
func (p *Package) allocAnnotationAt(f *ast.File, line int) *Annotation {
	if a := p.annotations[f][line]; a != nil {
		return a
	}
	return p.annotations[f][line-1]
}
