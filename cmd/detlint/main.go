// Command detlint runs the determinism-contract static-analysis suite
// (internal/lint) over the repository. It is a hard CI gate: any finding
// is a build break.
//
// Usage:
//
//	detlint [packages]
//
// With no arguments it analyzes ./... relative to the current directory.
// Only the packages registered as deterministic in the contract registry
// (lint.DefaultConfig) produce findings; patterns merely bound the load.
// Each finding is one "path:line:col: message [analyzer]" line, the form
// the CI problem matcher consumes.
//
// Exit status: 0 with no findings, 1 with findings, 2 on load or
// type-check failure.
package main

import (
	"flag"
	"fmt"
	"os"

	"cbar/internal/lint"
)

func main() {
	flag.Parse()
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	dir, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	diags, err := lint.Run(dir, lint.DefaultConfig(), patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "detlint:", err)
		os.Exit(2)
	}
	for _, d := range diags {
		fmt.Println(d)
	}
	if len(diags) > 0 {
		fmt.Fprintf(os.Stderr, "detlint: %d finding(s)\n", len(diags))
		os.Exit(1)
	}
}
