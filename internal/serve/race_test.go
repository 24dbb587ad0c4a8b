//go:build race

package serve

// raceEnabled reports whether the race detector is instrumenting this test
// binary: it makes sync.Pool drop a share of what is put back, so pooled
// reply channels are rebuilt at random and an allocation pin does not hold.
const raceEnabled = true
