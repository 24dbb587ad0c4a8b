package retainrelease_test

import (
	"testing"

	"dmt/internal/analysis/linttest"
)

// TestRetainRelease runs the analyzer over the rr fixture corpus:
// dropped and branch-leaked pooled references (minted or asserted off
// the wire) are flagged, a drop under a former escape-hatch comment
// included; release-on-all-paths, defers, wire sends, fan-out loops,
// type switches and test files are not.
func TestRetainRelease(t *testing.T) {
	linttest.Run(t, "retainrelease", "rr")
}
