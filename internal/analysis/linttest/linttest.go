// Package linttest checks the dmt-lint analyzers against the fixture
// module in internal/analysis/testdata/src, analysistest-style: fixture
// lines carry `// want "regexp"` comments and the harness verifies the
// emitted diagnostics match them one-to-one.
//
// The harness calls lint.Run, as cmd/dmt-lint does, in-process and with
// only the analyzer under test: the fixture packages are loaded through
// `go list`, cross-package facts flow from the packages they import, and
// a package with tests is reported through its test variant alone — so a
// finding reported twice fails the match.
package linttest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"dmt/internal/analysis"
	"dmt/internal/analysis/lint"
)

// Run runs the named analyzer over ./<dir>/... for each fixture dir
// (relative to testdata/src), and compares diagnostics against the dirs'
// want comments.
func Run(t *testing.T, analyzer string, dirs ...string) {
	t.Helper()
	src := testdataSrc(t)

	var a *lint.Analyzer
	for _, x := range analysis.All() {
		if x.Name == analyzer {
			a = x
		}
	}
	if a == nil {
		t.Fatalf("no analyzer named %q", analyzer)
	}
	var patterns []string
	for _, d := range dirs {
		patterns = append(patterns, "./"+filepath.ToSlash(d)+"/...")
	}
	diags, err := lint.Run(src, patterns, []*lint.Analyzer{a})
	if err != nil {
		t.Fatal(err)
	}

	wants := collectWants(t, src, dirs)
	for _, d := range diags {
		if !claim(wants[posKey(d.Pos.Filename, d.Pos.Line)], d.Message) {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Pos.Filename, d.Pos.Line, d.Message)
		}
	}
	for pos, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no %s diagnostic matched want %q", pos, analyzer, w.raw)
			}
		}
	}
}

// claim marks the first unmatched want whose pattern matches message.
func claim(ws []*want, message string) bool {
	for _, w := range ws {
		if !w.matched && w.re.MatchString(message) {
			w.matched = true
			return true
		}
	}
	return false
}

type want struct {
	re      *regexp.Regexp
	raw     string
	matched bool
}

var (
	wantLine  = regexp.MustCompile(`(?://|/\*)\s*want\s+(.*)`)
	wantToken = regexp.MustCompile("`[^`]*`" + `|"(?:[^"\\]|\\.)*"`)
)

// collectWants scans every fixture .go file under the dirs for
// `// want "re"` (or backquoted, or inside a block comment) annotations,
// keyed by file:line.
func collectWants(t *testing.T, src string, dirs []string) map[string][]*want {
	t.Helper()
	wants := map[string][]*want{}
	for _, dir := range dirs {
		root := filepath.Join(src, dir)
		err := filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
			if err != nil || e.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			for i, ln := range strings.Split(string(data), "\n") {
				m := wantLine.FindStringSubmatch(ln)
				if m == nil {
					continue
				}
				for _, tok := range wantToken.FindAllString(m[1], -1) {
					pat := tok[1 : len(tok)-1]
					if tok[0] == '"' {
						var uerr error
						pat, uerr = strconv.Unquote(tok)
						if uerr != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", path, i+1, tok, uerr)
						}
					}
					re, rerr := regexp.Compile(pat)
					if rerr != nil {
						t.Fatalf("%s:%d: bad want pattern %q: %v", path, i+1, pat, rerr)
					}
					key := posKey(filepath.Clean(path), i+1)
					wants[key] = append(wants[key], &want{re: re, raw: pat})
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("scanning fixtures under %s: %v", root, err)
		}
	}
	return wants
}

func posKey(file string, line int) string { return fmt.Sprintf("%s:%d", file, line) }

// testdataSrc returns the fixture module, found next to this source file
// so any test package can call the harness.
func testdataSrc(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("linttest: runtime.Caller failed")
	}
	src := filepath.Join(filepath.Dir(filepath.Dir(file)), "testdata", "src")
	if _, err := os.Stat(filepath.Join(src, "go.mod")); err != nil {
		t.Fatalf("fixture module not found: %v", err)
	}
	return src
}
