package handles_test

import (
	"testing"

	"dmt/internal/analysis/linttest"
)

// TestPendingWait runs the analyzer over the pw fixture corpus: dropped,
// blank-assigned, and branch-leaked handles are flagged, a drop under a
// former escape-hatch comment included; Wait/Carry on all paths, defers,
// arena stores, closures, returns and panic paths are not.
func TestPendingWait(t *testing.T) {
	linttest.Run(t, "pendingwait", "pw")
}
