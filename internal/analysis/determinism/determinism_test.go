package determinism_test

import (
	"testing"

	"dmt/internal/analysis/linttest"
)

// TestDeterminism runs the analyzer over the virtual-clock fixture
// packages: wall-clock reads (including the seeded internal/comm
// violation), the process-global rand source, and every range over a map
// or a maps.All/Keys/Values sequence are flagged, whatever the loop body;
// ranges over slices.Sorted(maps.Keys(m)), seeded rand, test files, and
// the justified //dmt:nondeterministic-ok escape hatch are not.
func TestDeterminism(t *testing.T) {
	linttest.Run(t, "determinism", "internal")
}
