//go:build race

package distributed

// raceEnabled reports whether the race detector is instrumenting this test
// binary; under it sync.Pool drops entries at random, which breaks
// allocation pins that rely on pooled buffers.
const raceEnabled = true
