package main

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// TestAliasFieldDocs pins the alias rule: an exported alias needs its own
// doc comment, and the exported fields of the internal struct it names
// are held to the field-doc rule as if declared in the public package.
func TestAliasFieldDocs(t *testing.T) {
	const internal = `package sim

// Result is documented; one of its fields may not be.
type Result struct {
	// Load is documented.
	Load float64
	Seeds int // trailing comments count
	%s
	hidden int
}

// Scale is not a struct: nothing to follow.
type Scale int
`
	cases := []struct {
		name   string
		public string
		field  string // spliced into sim.Result
		want   []string
	}{
		{
			name: "documented alias of a documented struct",
			public: `package cbar
import "cbar/internal/sim"
// Result re-exports the engine's row.
type Result = sim.Result
// Scale re-exports a non-struct.
type Scale = sim.Scale`,
			field: "// Algo is documented.\n\tAlgo string",
		},
		{
			name: "alias of a struct with an undocumented field",
			public: `package cbar
import "cbar/internal/sim"
// Result re-exports the engine's row.
type Result = sim.Result`,
			field: "Algo string",
			want:  []string{"sim.go:8: exported field Result (= sim.Result).Algo has no doc comment"},
		},
		{
			name: "undocumented alias",
			public: `package cbar
import engine "cbar/internal/sim"
type Result = engine.Result`,
			field: "// Algo is documented.\n\tAlgo string",
			want:  []string{"cbar.go:3: exported type Result has no doc comment"},
		},
		{
			name: "alias of a type the package does not declare",
			public: `package cbar
import "cbar/internal/sim"
// Gone re-exports nothing.
type Gone = sim.Gone`,
			want: []string{"cbar.go:4: alias Gone: cbar/internal/sim declares no type Gone"},
		},
		{
			name: "alias outside the module's internal packages is not followed",
			public: `package cbar
import "io"
// Writer re-exports a standard interface.
type Writer = io.Writer`,
		},
	}
	for _, tc := range cases {
		fset := token.NewFileSet()
		parse := func(name, src string) *ast.File {
			f, err := parser.ParseFile(fset, name, src, parser.ParseComments)
			if err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return f
		}
		pub := parse("cbar.go", tc.public)
		got := checkDocs(fset, []*ast.File{pub}, func(importPath string) ([]*ast.File, error) {
			if importPath != "cbar/internal/sim" {
				return nil, nil
			}
			return []*ast.File{parse("sim.go", strings.Replace(internal, "%s", tc.field, 1))}, nil
		})
		if strings.Join(got, "\n") != strings.Join(tc.want, "\n") {
			t.Errorf("%s:\n got  %q\n want %q", tc.name, got, tc.want)
		}
	}
}
