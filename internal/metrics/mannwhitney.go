package metrics

import (
	"math"
	"sort"
)

// MannWhitneyU performs the two-sided Mann-Whitney U test (a.k.a. Wilcoxon
// rank-sum) on two independent samples and returns the U statistic of the
// first sample and the two-sided p-value. Table 6 of the paper uses this
// test over 9 repeated AUC measurements per configuration to show TP beats
// naive assignment with statistical significance.
//
// For small samples (n1+n2 ≤ 20, which covers the paper's 9-vs-9 protocol)
// the p-value is exact: the permutation distribution of U over all
// C(n1+n2, n1) group assignments of the pooled midranks is enumerated.
// Larger samples use the normal approximation with tie correction and
// continuity correction.
func MannWhitneyU(a, b []float64) (u float64, pValue float64) {
	if n := len(a) + len(b); n > 0 && n <= 20 && len(a) > 0 && len(b) > 0 {
		return mannWhitneyUExact(a, b)
	}
	return mannWhitneyUNormal(a, b)
}

func mannWhitneyUNormal(a, b []float64) (u float64, pValue float64) {
	n1, n2 := float64(len(a)), float64(len(b))
	if n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	type obs struct {
		v     float64
		fromA bool
	}
	all := make([]obs, 0, len(a)+len(b))
	for _, v := range a {
		all = append(all, obs{v, true})
	}
	for _, v := range b {
		all = append(all, obs{v, false})
	}
	sort.Slice(all, func(i, j int) bool { return all[i].v < all[j].v })

	// Midranks with tie bookkeeping for the variance correction.
	n := len(all)
	rankSumA := 0.0
	tieCorrection := 0.0
	i := 0
	for i < n {
		j := i
		for j < n && all[j].v == all[i].v {
			j++
		}
		midrank := float64(float64(i+j+1) / 2)
		for k := i; k < j; k++ {
			if all[k].fromA {
				rankSumA += midrank
			}
		}
		t := float64(j - i)
		if t > 1 {
			tieCorrection += float64(t*t*t) - t
		}
		i = j
	}

	u = rankSumA - float64(n1*(n1+1)/2)
	meanU := float64(n1 * n2 / 2)
	nn := n1 + n2
	varU := n1 * n2 / 12 * ((nn + 1) - tieCorrection/(nn*(nn-1)))
	if varU <= 0 {
		// All observations identical: no evidence either way.
		return u, 1
	}
	// Continuity correction of 0.5 toward the mean.
	z := u - meanU
	switch {
	case z > 0.5:
		z -= 0.5
	case z < -0.5:
		z += 0.5
	default:
		z = 0
	}
	z /= math.Sqrt(varU)
	pValue = 2 * normalSF(math.Abs(z))
	if pValue > 1 {
		pValue = 1
	}
	return u, pValue
}

// normalSF is the standard normal survival function P(Z > z).
func normalSF(z float64) float64 {
	return float64(0.5 * math.Erfc(z/math.Sqrt2))
}

// mannWhitneyUExact enumerates the permutation distribution of U over all
// C(n1+n2, n1) assignments of the pooled midranks (ties handled naturally:
// tied observations carry equal midranks in every assignment). The
// two-sided p-value is the fraction of assignments whose U deviates from
// the null mean at least as much as the observed one.
func mannWhitneyUExact(a, b []float64) (u float64, pValue float64) {
	n1, n2 := len(a), len(b)
	n := n1 + n2
	pooled := make([]float64, 0, n)
	pooled = append(pooled, a...)
	pooled = append(pooled, b...)
	ranks := midranks(pooled)

	rankSumA := 0.0
	for i := 0; i < n1; i++ {
		rankSumA += ranks[i]
	}
	u = rankSumA - float64(float64(n1)*float64(n1+1)/2)
	meanU := float64(float64(n1) * float64(n2) / 2)
	dev := math.Abs(u - meanU)

	// Enumerate all n1-subsets of [0, n) via Gosper's hack.
	var total, extreme int
	limit := uint32(1) << n
	mask := uint32(1)<<n1 - 1
	for mask < limit {
		var sum float64
		m := mask
		for m != 0 {
			i := bitsTrailingZeros(m)
			sum += ranks[i]
			m &= m - 1
		}
		uu := sum - float64(float64(n1)*float64(n1+1)/2)
		if math.Abs(uu-meanU) >= dev-1e-12 {
			extreme++
		}
		total++
		// Gosper's hack: next subset with the same popcount.
		c := mask & (^mask + 1)
		r := mask + c
		mask = (((r ^ mask) >> 2) / c) | r
	}
	return u, float64(extreme) / float64(total)
}

// midranks assigns 1-based midranks to a sample, averaging over ties.
func midranks(xs []float64) []float64 {
	n := len(xs)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(i, j int) bool { return xs[idx[i]] < xs[idx[j]] })
	ranks := make([]float64, n)
	i := 0
	for i < n {
		j := i
		for j < n && xs[idx[j]] == xs[idx[i]] {
			j++
		}
		mid := float64(i+j+1) / 2
		for k := i; k < j; k++ {
			ranks[idx[k]] = mid
		}
		i = j
	}
	return ranks
}

func bitsTrailingZeros(m uint32) int {
	n := 0
	for m&1 == 0 {
		m >>= 1
		n++
	}
	return n
}
