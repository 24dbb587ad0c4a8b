// dmt-lint machine-checks the repo's concurrency, refcount, determinism
// and reachability invariants (see internal/analysis).
//
//	dmt-lint [packages]
//
// loads the whole module with its tests, runs every analyzer, and prints
// each finding in the packages (default ./...) as
// file:line:col: analyzer: message.
// It exits 1 when there are findings and 2 when the packages do not load
// or type-check. It takes no flags.
package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"dmt/internal/analysis"
	"dmt/internal/analysis/lint"
)

func main() {
	os.Exit(run(".", os.Args[1:], os.Stdout, os.Stderr))
}

// run lints the packages patterns match in the module at dir and returns
// the exit code.
func run(dir string, patterns []string, stdout, stderr io.Writer) int {
	for _, p := range patterns {
		if strings.HasPrefix(p, "-") {
			fmt.Fprintln(stderr, "usage: dmt-lint [packages]")
			return 2
		}
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	diags, err := lint.Run(dir, patterns, analysis.All())
	if err != nil {
		fmt.Fprintf(stderr, "dmt-lint: %v\n", err)
		return 2
	}
	// Paths under dir print relative to it, in messages too, as the go
	// command prints them.
	abs, _ := filepath.Abs(dir)
	for _, d := range diags {
		line := fmt.Sprintf("%s: %s: %s", d.Pos, d.Analyzer, d.Message)
		fmt.Fprintln(stdout, strings.ReplaceAll(line, abs+string(filepath.Separator), ""))
	}
	if len(diags) > 0 {
		return 1
	}
	return 0
}
