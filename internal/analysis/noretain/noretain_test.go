package noretain_test

import (
	"testing"

	"dmt/internal/analysis/linttest"
)

// TestNoRetain runs the analyzer over the nr fixture corpus: Predict
// implementations that retain or alias the batch, a store under a former
// escape-hatch comment included, and transient-result call sites that
// let arena storage escape (the //dmt:transient-result fact crossing the
// arena->nr package boundary) are flagged; copy-out, pass-down and
// in-place consumption are not.
func TestNoRetain(t *testing.T) {
	linttest.Run(t, "noretain", "nr")
}
