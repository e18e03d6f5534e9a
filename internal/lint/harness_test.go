package lint

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The fixture harness: each analyzer test points at a directory under
// testdata/src containing a small synthetic package whose lines carry
// `// want `regex`` comments on every line expected to produce a
// finding. The harness type-checks the fixture, runs one analyzer with
// a fixture-local Config, and fails on any unmatched finding or
// unsatisfied want.

// moduleDir is the repository root (tests run with the package directory
// as working directory).
const moduleDir = "../.."

// A want comment expects a finding on its own line.
var wantRe = regexp.MustCompile("// want `([^`]+)`")

// runFixture applies one analyzer to testdata/src/<name> under cfg and
// diffs the findings against the fixture's want comments. A fixture is a
// package of the module that ./... skips (it is under testdata), so it is
// loaded by its directory.
func runFixture(t *testing.T, a *Analyzer, cfg *Config, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	abs, err := filepath.Abs(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := Load(moduleDir, abs)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded as %d packages", name, len(pkgs))
	}
	diffWants(t, dir, RunAnalyzers(pkgs[0], cfg, []*Analyzer{a}))
}

// diffWants fails on any finding without a matching want comment and any
// want comment without a matching finding.
func diffWants(t *testing.T, dir string, diags []Diagnostic) {
	t.Helper()
	wants := scanWants(t, dir)
	matched := make(map[wantKey]bool)
	for _, d := range diags {
		key := wantKey{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line}
		re, ok := wants[key]
		if !ok {
			t.Errorf("unexpected finding at %s:%d: %s", key.file, key.line, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("finding at %s:%d does not match want %q: %s", key.file, key.line, re, d.Message)
			continue
		}
		matched[key] = true
	}
	for key, re := range wants {
		if !matched[key] {
			t.Errorf("missing finding at %s:%d matching %q", key.file, key.line, re)
		}
	}
}

type wantKey struct {
	file string
	line int
}

// scanWants collects the `// want` comments of every fixture file,
// keyed by (basename, line).
func scanWants(t *testing.T, dir string) map[wantKey]*regexp.Regexp {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	wants := make(map[wantKey]*regexp.Regexp)
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			re, err := regexp.Compile(m[1])
			if err != nil {
				t.Fatalf("%s:%d: bad want regexp %q: %v", e.Name(), i+1, m[1], err)
			}
			wants[wantKey{file: e.Name(), line: i + 1}] = re
		}
	}
	return wants
}

// fixtureConfig returns a minimal Config for fixtures: the real
// registry's RNG package.
func fixtureConfig() *Config {
	return &Config{RNGPackage: "cbar/internal/rng"}
}
