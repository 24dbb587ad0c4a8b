//go:build !race

package distributed

const raceEnabled = false
