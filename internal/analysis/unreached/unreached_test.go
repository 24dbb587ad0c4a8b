package unreached_test

import (
	"testing"

	"dmt/internal/analysis/linttest"
)

// TestUnreached runs the analyzer over the ur fixtures: an exported
// function or method of an internal/ package reached only by its own
// package's tests (in-package and external), by nothing, or only by itself
// is flagged; a use from its own package's non-test code, from another
// package's code or tests, with inferred type arguments, and unexported
// functions are not, nor is a method reached through an interface value, a
// type parameter's constraint, fmt's Stringer, promotion from an embedded
// type, or an instance of its generic type.
func TestUnreached(t *testing.T) {
	linttest.Run(t, "unreached", "ur")
}
