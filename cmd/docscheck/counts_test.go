package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestCountRules pins what each count reads on a fixture module: test
// files, testdata and hidden directories count nowhere; a configuration
// struct is Budget or ends in Config or Options and counts only its
// exported fields, and not under internal/lint or benchmark/; a lint row
// is an element of an outermost slice or map literal in DefaultConfig or
// an appended value; an annotation is a line that begins with //lint:; a
// CLI flag is registered in any non-test file of a cmd/*/ directory,
// through the flag package or on a *flag.FlagSet.
func TestCountRules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"pub.go": `package pub

// Config is settable: two fields.
type Config struct {
	P, A int
	hidden int
}

var s = "//lint:alloc not an annotation"
`,
		"internal/eng/eng.go": `package eng

type RunOptions struct {
	Seeds int
}

type Budget struct{ Warmup, Measure int64 }

type Result struct{ Load float64 }

func f() {
	//lint:alloc counted
	_ = make([]int, 1)
}
`,
		"internal/eng/eng_test.go": `package eng

type TestConfig struct{ X int }

//lint:ordered not production
`,
		"internal/eng/testdata/x.go": `package x

type Config struct{ X, Y int }
`,
		"internal/.hidden/h.go": `package h

type Config struct{ X int }
`,
		"internal/lint/lint.go": `package lint

type Config struct {
	Pkgs        []string
	BarrierOnly map[string][]string
	Fields      []FieldRule
	Methods     []string
}

type FieldRule struct {
	Field   string
	Writers []string
}

func DefaultConfig() *Config {
	hooks := []string{"Route", "OnHead"}
	return &Config{
		Pkgs:        []string{"a", "b", "c"},
		BarrierOnly: map[string][]string{"x": {"y", "z"}},
		Fields:      []FieldRule{{Field: "f", Writers: []string{"w1", "w2"}}},
		Methods:     append(hooks, "BeginCycle"),
	}
}
`,
		"benchmark/run.go": `package main

type RunConfig struct{ N int }
`,
		"cmd/tool/main.go": `package main

import "flag"

func main() {
	var s string
	flag.StringVar(&s, "s", "", "")
	_ = flag.Int("n", 0, "")
	flag.Parse()
}
`,
		"cmd/tool/cli.go": `package main

import "flag"

type cli struct{ set *flag.FlagSet }
`,
		"cmd/tool/flags.go": `package main

import "flag"

func register(fs *flag.FlagSet, c *cli) {
	var v bool
	fs.BoolVar(&v, "v", false, "")
	c.set.Int64("n2", 0, "")
	sub := flag.NewFlagSet("sub", flag.ContinueOnError)
	_ = sub.String("o", "", "")
	var other = flag.NewFlagSet("other", flag.ContinueOnError)
	other.Func("f", "", nil)
	notASet := struct{ String func(string, string, string) }{}
	notASet.String("x", "", "")
}
`,
		"cmd/tool/flags_test.go": `package main

import "flag"

func registerTest(fs *flag.FlagSet) { fs.Bool("t", false, "") }
`,
		"cmd/docscheck/main.go": `package main

import "flag"

func main() { _ = flag.Bool("counts", false, "") }
`,
	}
	lines := map[string]int{}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
		lines[name] = strings.Count(src, "\n")
	}
	got, err := countRepo(root)
	if err != nil {
		t.Fatal(err)
	}
	want := counts{
		internalLines:  lines["internal/eng/eng.go"] + lines["internal/lint/lint.go"],
		benchmarkLines: lines["benchmark/run.go"],
		settable:       2 + 1 + 2,         // pub.Config, RunOptions, Budget
		flags:          3 + 4,             // tool/main.go 2, docscheck 1, tool/flags.go 4 (one on cli.go's field)
		lintRows:       2 + 3 + 1 + 1 + 1, // hooks, Pkgs, BarrierOnly, Fields, the append
		annotations:    1,
	}
	if got != want {
		t.Fatalf("counts %+v, want %+v", got, want)
	}
}
