// Package directive parses dmt-lint suppression comments.
//
// Every dmt-lint analyzer accepts a per-line escape hatch of the form
//
//	//dmt:<marker>-ok <reason>
//
// placed either at the end of the offending line, where it covers that
// line only, or alone on the line immediately above, where it covers the
// line below. The marker must be followed by whitespace and a reason:
// a bare marker is itself a diagnostic, so every suppression in the tree
// carries a written justification that survives review.
package directive

import (
	"bytes"
	"go/ast"
	"go/token"
	"os"
	"strings"

	"dmt/internal/analysis/lint"
)

// Index holds the positions of one analyzer's suppression markers within a
// pass, keyed by (file, line). Build it once per pass with New; bare markers
// (no reason) are reported immediately as diagnostics.
type Index struct {
	pass   *lint.Pass
	marker string
	lines  map[string]map[int]bool // filename -> set of suppressed lines
}

// New scans every file in the pass for marker (e.g.
// "dmt:nondeterministic-ok") and returns the index. A marker with no
// trailing reason is reported against the comment and does not suppress.
func New(pass *lint.Pass, marker string) *Index {
	ix := &Index{pass: pass, marker: marker, lines: map[string]map[int]bool{}}
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				ix.add(c)
			}
		}
	}
	return ix
}

func (ix *Index) add(c *ast.Comment) {
	text, ok := strings.CutPrefix(c.Text, "//"+ix.marker)
	if !ok {
		return
	}
	if strings.TrimSpace(text) == "" {
		ix.pass.Reportf(c.Pos(), "%s needs a reason: //%s <why this is safe>", ix.marker, ix.marker)
		return
	}
	if text[0] != ' ' && text[0] != '\t' {
		return // a longer word, such as //dmt:nondeterministic-okay
	}
	pos := ix.pass.Fset.Position(c.Pos())
	set := ix.lines[pos.Filename]
	if set == nil {
		set = map[int]bool{}
		ix.lines[pos.Filename] = set
	}
	if aloneOnLine(pos) {
		set[pos.Line+1] = true
	} else {
		set[pos.Line] = true
	}
}

// aloneOnLine reports whether only blanks precede pos on its line.
func aloneOnLine(pos token.Position) bool {
	src, err := os.ReadFile(pos.Filename)
	if err != nil || pos.Offset > len(src) {
		return false
	}
	return len(bytes.TrimSpace(src[pos.Offset-pos.Column+1:pos.Offset])) == 0
}

// Suppresses reports whether a justified marker covers pos.
func (ix *Index) Suppresses(pos token.Pos) bool {
	p := ix.pass.Fset.Position(pos)
	return ix.lines[p.Filename][p.Line]
}

// Report files a diagnostic at pos unless a justified marker covers it.
func (ix *Index) Report(pos token.Pos, format string, args ...any) {
	if ix.Suppresses(pos) {
		return
	}
	ix.pass.Reportf(pos, format, args...)
}
