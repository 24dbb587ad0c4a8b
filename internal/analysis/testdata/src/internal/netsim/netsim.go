// Package netsim is the determinism fixture corpus. Its import path ends
// in internal/netsim, which puts it on the virtual-clock path the real
// analyzer guards.
package netsim

import (
	"math/rand"
	"sort"
	"time"
)

// ---- flagged: wall clock ----------------------------------------------

func wallClock() int64 {
	t := time.Now() // want `time\.Now reads the wall clock in a virtual-clock package`
	return t.UnixNano()
}

func wallElapsed(start time.Time) time.Duration {
	return time.Since(start) // want `time\.Since reads the wall clock in a virtual-clock package`
}

// ---- flagged: process-global rand -------------------------------------

func globalRand(n int) int {
	return rand.Intn(n) // want `rand\.Intn draws from the process-global source`
}

// ---- flagged: order-sensitive map iteration ---------------------------

func floatAccumulation(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is observable: floating-point`
		sum += v
	}
	return sum
}

func orderDependentWrite(m map[int]int) int {
	var last int
	for _, v := range m { // want `map iteration order is observable`
		last = v
	}
	return last
}

func sideEffectingCall(m map[int]int, sink func(int)) {
	for _, v := range m { // want `map iteration order is observable: a call whose effects may depend on visitation order`
		sink(v)
	}
}

func bareMarkerNeedsReason() int64 {
	return time.Now().UnixNano() /* want `dmt:nondeterministic-ok needs a reason` `time\.Now reads the wall clock` */ //dmt:nondeterministic-ok
}

// ---- allowed ----------------------------------------------------------

func mapToMapBuild(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m {
		out[k] = 2 * v
	}
	return out
}

func integerAccumulation(m map[int]int) int {
	n := 0
	for _, v := range m {
		n += v
	}
	return n
}

func maxGuard(m map[int]int) int {
	best := 0
	for _, v := range m {
		if v > best {
			best = v
		}
	}
	return best
}

func collectKeysThenSort(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func deleteWhileRanging(m map[int]int, cut int) {
	for k, v := range m {
		if v < cut {
			delete(m, k)
		}
	}
}

func constantFlag(m map[int]int) bool {
	found := false
	for _, v := range m {
		if v == 0 {
			found = true
		}
	}
	return found
}

func iterationLocalWork(m map[int][]float32) int {
	total := 0
	for _, row := range m {
		s := 0
		for range row {
			s++
		}
		total += s
	}
	return total
}

func seededRand(n int) int {
	r := rand.New(rand.NewSource(7))
	return r.Intn(n)
}

func suppressedWallClock() int64 {
	return time.Now().UnixNano() //dmt:nondeterministic-ok fixture: wall-clock-only stats path
}

// ---- marker placement -------------------------------------------------

func trailingMarkerCoversItsOwnLineOnly() (int64, int64) {
	a := time.Now().UnixNano() //dmt:nondeterministic-ok fixture: covers this line, not the next
	b := time.Now().UnixNano() // want `time\.Now reads the wall clock`
	return a, b
}

func markerAloneCoversTheNextLine() int64 {
	//dmt:nondeterministic-ok fixture: a marker alone on its line covers the line below
	return time.Now().UnixNano()
}

func markerNeedsWhitespaceBeforeTheReason() int64 {
	return time.Now().UnixNano() /* want `time\.Now reads the wall clock` */ //dmt:nondeterministic-okay
}
