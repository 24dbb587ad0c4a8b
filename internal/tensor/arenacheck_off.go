//go:build !arenacheck

package tensor

// ArenaCheck reports whether the arenacheck build tag is set: see poison.
const ArenaCheck = false

func (a *Arena) poison() {}
