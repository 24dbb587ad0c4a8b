//go:build race

package models

// raceEnabled reports whether the race detector is instrumenting this test
// binary: it makes sync.Pool drop a share of what is put back, so Predict's
// pooled scratch is rebuilt at random and the tight allocation pin does not
// hold.
const raceEnabled = true
