//go:build arenacheck

package tensor

import "math"

// ArenaCheck reports whether the arenacheck build tag is set: see poison.
// Tests that pin an arena's reuse or its allocations skip under it.
const ArenaCheck = true

// poison is Reset and Rewind under the arenacheck build tag, a test-only
// use-after-reset check: every chunk the arena holds is filled with NaN and
// dropped, so later tensors come from fresh chunks and a tensor read after
// its pass's Reset reads NaN instead of the next pass's data. The training
// goldens then fail on a stale tensor instead of passing by luck. The
// headers are dropped too, unless Rewind keeps them: it keeps them in use.
func (a *Arena) poison() {
	nan := float32(math.NaN())
	for _, c := range a.chunks {
		for i := range c {
			c[i] = nan
		}
	}
	a.chunks, a.maxSpill = nil, 0
	a.ci, a.off, a.spill = 0, 0, 0
}
