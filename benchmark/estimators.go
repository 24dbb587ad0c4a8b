package main

import (
	"math"
	"sort"
)

// The estimators behind every wall-clock metric (README "Rules that make it
// repeat", rule 3). Interference from the shared host only ever slows an
// operation, so a measured phase is cut into equal-work units and read from
// the fast side of their distribution — the fastest decile of unit times
// for a rate, the quietest decile of the segments for a latency percentile
// — never from whole-run totals.

// percentile reads the q-quantile of sorted with the ceil nearest-rank
// convention (the same one workload.Percentile uses): the smallest sample
// with at least a q share of the distribution at or below it.
func percentile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the nearest-rank 0.5 quantile.
func median(xs []float64) float64 { return percentile(sortedCopy(xs), 0.5) }

// fastDecile is the nearest-rank 0.10 quantile of unit times: the time the
// fastest tenth of the units took, or beat.
func fastDecile(xs []float64) float64 { return percentile(sortedCopy(xs), 0.10) }

// fastDecileRate is the throughput estimator: opsPerUnit operations in the
// fastest decile's unit time. The rate is per whatever unitTimes are in.
func fastDecileRate(unitTimes []float64, opsPerUnit float64) float64 {
	return opsPerUnit / fastDecile(unitTimes)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// segmentQuantile cuts samples, in arrival order, into nseg equal-count
// segments (the remainder is dropped from the tail) and returns each
// segment's q-quantile.
func segmentQuantile(samples []float64, nseg int, q float64) []float64 {
	per := len(samples) / nseg
	if per == 0 {
		return nil
	}
	out := make([]float64, nseg)
	for s := 0; s < nseg; s++ {
		out[s] = percentile(sortedCopy(samples[s*per:(s+1)*per]), q)
	}
	return out
}

// quietSegments is the latency estimator: the fastest decile over segments
// of the per-segment q-quantile. A stall or a slow episode moves the
// quantile of the segments it falls in, not the quiet tenth's.
func quietSegments(samples []float64, nseg int, q float64) float64 {
	return fastDecile(segmentQuantile(samples, nseg, q))
}

// medianOfSegments is the median over segments of the per-segment
// q-quantile: what the whole run typically looked like, stalls' share
// included. The demoted tail-latency diagnostics use it.
func medianOfSegments(samples []float64, nseg int, q float64) float64 {
	return median(segmentQuantile(samples, nseg, q))
}

// quartileSpread is the A/A steadiness figure the driver uses: the distance
// between the first and third quartile over the median, with quartiles as
// Python's statistics.quantiles(values, n=4) computes them (exclusive
// method: position (n+1)·p, linear interpolation).
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1)
		lo := int(math.Floor(pos))
		frac := pos - float64(lo)
		if lo < 1 {
			return s[0]
		}
		if lo >= n {
			return s[n-1]
		}
		return s[lo-1] + frac*(s[lo]-s[lo-1])
	}
	med := at(0.5)
	if med == 0 {
		return 0
	}
	return math.Abs(at(0.75)-at(0.25)) / math.Abs(med)
}
