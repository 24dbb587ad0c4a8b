// Package netsim is the determinism fixture corpus. Its import path ends
// in internal/netsim, which puts it on the virtual-clock path the real
// analyzer guards.
package netsim

import (
	"maps"
	"math/rand"
	"slices"
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

// ---- flagged: map iteration ------------------------------------------
//
// Every range over a map, or over maps.All/Keys/Values, is reported,
// whatever its body does; the bodies below include ones whose effects
// commute, such as integer sums and map-to-map builds.

func floatAccumulation(m map[int]float64) float64 {
	var sum float64
	for _, v := range m { // want `map iteration order is observable`
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
	for _, v := range m { // want `map iteration order is observable`
		sink(v)
	}
}

func mapToMapBuild(m map[int]float64) map[int]float64 {
	out := make(map[int]float64, len(m))
	for k, v := range m { // want `map iteration order is observable`
		out[k] = 2 * v
	}
	return out
}

func integerAccumulation(m map[int]int) int {
	n := 0
	for _, v := range m { // want `map iteration order is observable`
		n += v
	}
	return n
}

func maxGuard(m map[int]int) int {
	best := 0
	for _, v := range m { // want `map iteration order is observable`
		if v > best {
			best = v
		}
	}
	return best
}

func collectKeysThenSort(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m { // want `map iteration order is observable`
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func deleteWhileRanging(m map[int]int, cut int) {
	for k, v := range m { // want `map iteration order is observable`
		if v < cut {
			delete(m, k)
		}
	}
}

func constantFlag(m map[int]int) bool {
	found := false
	for _, v := range m { // want `map iteration order is observable`
		if v == 0 {
			found = true
		}
	}
	return found
}

func iterationLocalWork(m map[int][]float32) int {
	total := 0
	for _, row := range m { // want `map iteration order is observable`
		s := 0
		for range row {
			s++
		}
		total += s
	}
	return total
}

func keysIterator(m map[int]int) []int {
	var keys []int
	for k := range maps.Keys(m) { // want `map iteration order is observable`
		keys = append(keys, k)
	}
	return keys
}

func valuesIterator(m map[int]float64) float64 {
	var sum float64
	for v := range maps.Values(m) { // want `map iteration order is observable`
		sum += v
	}
	return sum
}

func allIterator(m map[int]int, sink func(int, int)) {
	for k, v := range maps.All(m) { // want `map iteration order is observable`
		sink(k, v)
	}
}

func formerMarkerSilencesNothing() int64 {
	return time.Now().UnixNano() /* want `time\.Now reads the wall clock` */ //dmt:nondeterministic-ok a former escape hatch silences nothing
}

// ---- allowed ----------------------------------------------------------

func sortedKeys(m map[int]float64) float64 {
	var sum float64
	for _, k := range slices.Sorted(maps.Keys(m)) {
		sum += m[k]
	}
	return sum
}

func seededRand(n int) int {
	r := rand.New(rand.NewSource(7))
	return r.Intn(n)
}
