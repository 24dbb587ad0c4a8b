package partition

import (
	"fmt"
	"sort"

	"dmt/internal/tensor"
)

// The paper's one TP setting (§5.1: "dot-product based TP on a 2D plane
// with R = 1 for constrained K-Means"): MDS onto mdsDim dimensions (n < N
// saves computation and reduces embedding noise, §3.3), solved by mdsSteps
// Adam steps at mdsLR. Size ratio K = 1 caps every group at ⌈F/k⌉.
const (
	mdsDim   = 2
	mdsSteps = 400
	mdsLR    = 0.05
)

// TP is the end-to-end Tower Partitioner: dot-product (cosine) kernel,
// 2-D embedding plane, constrained K-Means with size ratio K = 1.
type TP struct {
	Strategy Strategy
	Seed     uint64
}

// NewTP returns a partitioner for strategy, seeded by seed.
func NewTP(strategy Strategy, seed uint64) *TP {
	return &TP{Strategy: strategy, Seed: seed}
}

// Result is a full partitioning outcome, including the artifacts Figure 9
// visualizes: the interaction matrix and the learned planar coordinates.
type Result struct {
	Groups      [][]int
	Interaction *tensor.Tensor // (F, F)
	Distance    *tensor.Tensor // (F, F) after the strategy transform
	Coords      *tensor.Tensor // (F, mdsDim) learned embedding
	Stress      []float64      // MDS optimization trace
}

// PartitionEmbeddings runs the full pipeline from a batch of per-feature
// embeddings R (B, F, N) to numTowers balanced towers.
func (tp *TP) PartitionEmbeddings(r *tensor.Tensor, numTowers int) (*Result, error) {
	return tp.PartitionMatrix(InteractionMatrix(r), numTowers)
}

// PartitionMatrix runs the pipeline from a precomputed interaction matrix.
func (tp *TP) PartitionMatrix(im *tensor.Tensor, numTowers int) (*Result, error) {
	f := im.Dim(0)
	if numTowers <= 0 || numTowers > f {
		return nil, fmt.Errorf("partition: %d towers for %d features", numTowers, f)
	}
	d := DistanceMatrix(im, tp.Strategy)
	mds := MDSEmbed(d, mdsDim, mdsSteps, mdsLR, tp.Seed)
	maxSize := (f + numTowers - 1) / numTowers
	groups := ConstrainedKMeans(mds.X, numTowers, maxSize, 50, tp.Seed+1)
	return &Result{
		Groups:      groups,
		Interaction: im,
		Distance:    d,
		Coords:      mds.X,
		Stress:      mds.StressHistory,
	}, nil
}

// GreedyCoherent is a graph-cut-style baseline (§3.3 contrasts TP against
// NP-hard cut formulations): seed each group with mutually distant
// features, then repeatedly attach the unassigned feature with the highest
// affinity to any non-full group.
func GreedyCoherent(im *tensor.Tensor, numTowers, maxSize int) [][]int {
	f := im.Dim(0)
	assigned := make([]int, f)
	for i := range assigned {
		assigned[i] = -1
	}
	groups := make([][]int, numTowers)

	// Farthest-first seeds.
	seed := 0
	for t := 0; t < numTowers && t < f; t++ {
		if t > 0 {
			best, bestScore := -1, 2.0*float64(f)
			for i := 0; i < f; i++ {
				if assigned[i] >= 0 {
					continue
				}
				score := 0.0
				for _, g := range groups {
					for _, s := range g {
						score += float64(im.At(i, s))
					}
				}
				if score < bestScore {
					best, bestScore = i, score
				}
			}
			seed = best
		}
		assigned[seed] = t
		groups[t] = append(groups[t], seed)
	}

	for {
		bestF, bestT, bestAff := -1, -1, -1.0
		for i := 0; i < f; i++ {
			if assigned[i] >= 0 {
				continue
			}
			for t := 0; t < numTowers; t++ {
				if len(groups[t]) >= maxSize {
					continue
				}
				aff := 0.0
				for _, s := range groups[t] {
					aff += float64(im.At(i, s))
				}
				aff /= float64(len(groups[t]))
				if aff > bestAff {
					bestF, bestT, bestAff = i, t, aff
				}
			}
		}
		if bestF < 0 {
			break
		}
		assigned[bestF] = bestT
		groups[bestT] = append(groups[bestT], bestF)
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

// WithinCrossAffinity summarizes a partition against an interaction matrix:
// the mean pairwise affinity inside groups and across groups. The coherent
// strategy should maximize the gap; diverse should invert it.
func WithinCrossAffinity(im *tensor.Tensor, groups [][]int) (within, cross float64) {
	f := im.Dim(0)
	groupOf := make([]int, f)
	for t, g := range groups {
		for _, i := range g {
			groupOf[i] = t
		}
	}
	var wSum, cSum float64
	var wN, cN int
	for i := 0; i < f; i++ {
		for j := i + 1; j < f; j++ {
			v := float64(im.At(i, j))
			if groupOf[i] == groupOf[j] {
				wSum += v
				wN++
			} else {
				cSum += v
				cN++
			}
		}
	}
	if wN > 0 {
		within = wSum / float64(wN)
	}
	if cN > 0 {
		cross = cSum / float64(cN)
	}
	return within, cross
}

// BalanceStats reports group size spread: (min, max, max/min ratio). A
// ratio within the partitioner's K certifies the constraint held.
func BalanceStats(groups [][]int) (min, max int, ratio float64) {
	min, max = 1<<31, 0
	for _, g := range groups {
		if len(g) < min {
			min = len(g)
		}
		if len(g) > max {
			max = len(g)
		}
	}
	if min == 0 {
		return min, max, float64(max)
	}
	return min, max, float64(max) / float64(min)
}

// PairAgreement measures how well a partition recovers a reference
// partition: the F1 of "same group" pair decisions. 1.0 is exact recovery
// (up to label permutation).
func PairAgreement(got, want [][]int, nFeatures int) float64 {
	label := func(groups [][]int) []int {
		l := make([]int, nFeatures)
		for t, g := range groups {
			for _, i := range g {
				l[i] = t
			}
		}
		return l
	}
	lg, lw := label(got), label(want)
	var tp, fp, fn float64
	for i := 0; i < nFeatures; i++ {
		for j := i + 1; j < nFeatures; j++ {
			sameGot := lg[i] == lg[j]
			sameWant := lw[i] == lw[j]
			switch {
			case sameGot && sameWant:
				tp++
			case sameGot && !sameWant:
				fp++
			case !sameGot && sameWant:
				fn++
			}
		}
	}
	if tp == 0 {
		return 0
	}
	precision := tp / (tp + fp)
	recall := tp / (tp + fn)
	return 2 * precision * recall / (precision + recall)
}
