// Package metrics implements the evaluation statistics used throughout the
// paper's quality experiments: ROC AUC (Tables 2–6), LogLoss and Normalized
// Entropy (He et al. 2014, used for XLRM in §5.2.2), run summary statistics
// (median and standard deviation over 9 repeats), and the Mann-Whitney U
// test that Table 6 uses to establish the significance of TP over naive
// partitioning.
package metrics

import (
	"fmt"
	"math"
	"sort"
)

// AUC computes the exact area under the ROC curve from predicted scores and
// binary labels via the rank-sum formulation, handling ties by midranks.
// Returns 0.5 when either class is absent.
func AUC(scores []float64, labels []float32) float64 {
	if len(scores) != len(labels) {
		panic(fmt.Sprintf("metrics: AUC length mismatch %d vs %d", len(scores), len(labels)))
	}
	n := len(scores)
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return scores[idx[a]] < scores[idx[b]] })

	var nPos, nNeg float64
	rankSumPos := 0.0
	i := 0
	for i < n {
		j := i
		for j < n && scores[idx[j]] == scores[idx[i]] {
			j++
		}
		// Midrank for the tie group [i, j). Ranks are 1-based.
		midrank := float64(float64(i+j+1) / 2)
		for k := i; k < j; k++ {
			if labels[idx[k]] > 0.5 {
				rankSumPos += midrank
			}
		}
		i = j
	}
	for _, l := range labels {
		if l > 0.5 {
			nPos++
		} else {
			nNeg++
		}
	}
	if nPos == 0 || nNeg == 0 {
		return 0.5
	}
	return (rankSumPos - float64(nPos*(nPos+1)/2)) / (nPos * nNeg)
}

// LogLoss returns the mean binary cross-entropy of probability predictions,
// clamping probabilities away from {0, 1} for stability.
func LogLoss(probs []float64, labels []float32) float64 {
	if len(probs) != len(labels) {
		panic("metrics: LogLoss length mismatch")
	}
	const eps = 1e-12
	total := 0.0
	for i, p := range probs {
		p = math.Min(math.Max(p, eps), 1-eps)
		if labels[i] > 0.5 {
			total -= math.Log(p)
		} else {
			total -= math.Log(1 - p)
		}
	}
	return total / float64(len(probs))
}

// NormalizedEntropy is LogLoss divided by the entropy of the background CTR
// (He et al. 2014): values below 1 beat always-predict-the-average; lower is
// better. This is the XLRM quality metric in §5.2.2.
func NormalizedEntropy(probs []float64, labels []float32) float64 {
	n := len(labels)
	if n == 0 {
		return math.NaN()
	}
	pos := 0.0
	for _, l := range labels {
		if l > 0.5 {
			pos++
		}
	}
	p := pos / float64(n)
	if p <= 0 || p >= 1 {
		return math.NaN()
	}
	background := -(float64(p*math.Log(p)) + float64((1-p)*math.Log(1-p)))
	return LogLoss(probs, labels) / background
}

// Median returns the median of xs (average of middle pair for even length).
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

// StdDev returns the sample standard deviation (n-1 denominator), matching
// the "(Std)" columns of Tables 3–6.
func StdDev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, x := range xs {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
