// Package partition implements the Tower Partitioner (TP, §3.3): a learned,
// balanced, end-to-end feature partitioner that turns feature-interaction
// structure into tower assignments.
//
// Pipeline:
//
//  1. Interaction matrix I(i,j) = mean over samples of |cos(F_i, F_j)|
//     computed from per-feature embeddings (learned ones in production, the
//     generator's oracle latents in tests).
//  2. Distance transform D = f(I): the diverse strategy (f = I) pushes
//     similar features into different towers; the coherent strategy
//     (f = 1 − I) pulls them together. The paper tries both (§3.3).
//  3. Metric embedding: coordinates X_i in an n-dimensional Euclidean space
//     (n < N, typically 2) found by minimizing the MDS stress
//     Σ_{i<j} (‖X_i − X_j‖ − D_ij)² with Adam — the paper's learned step.
//  4. Constrained K-Means (Bradley et al. 2000): balanced clusters with a
//     maximum group size of K × the minimum tower size.
//
// The package also provides a greedy graph-cut-style baseline for
// comparison benches; Table 6's naive strided baseline is
// models.RoundRobinTowers.
package partition

import (
	"fmt"
	"math"
	"sort"

	"dmt/internal/tensor"
)

// InteractionMatrix computes the (F, F) batch-averaged absolute-cosine
// affinity from per-feature embeddings R of shape (B, F, N). The diagonal
// is 1. §3.3 explains why batch averaging of per-sample affinities is the
// semantically meaningful reduction (raw embedding rows are not comparable
// across samples).
func InteractionMatrix(r *tensor.Tensor) *tensor.Tensor {
	if r.Rank() != 3 {
		panic(fmt.Sprintf("partition: InteractionMatrix wants (B,F,N), got %v", r.Shape()))
	}
	b, f, n := r.Dim(0), r.Dim(1), r.Dim(2)
	out := tensor.New(f, f)
	counts := make([]int, f*f)
	data := r.Data()
	for s := 0; s < b; s++ {
		base := data[s*f*n : (s+1)*f*n]
		norms := make([]float64, f)
		for i := 0; i < f; i++ {
			v := base[i*n : (i+1)*n]
			var acc float64
			for d := 0; d < n; d++ {
				acc += float64(float64(v[d]) * float64(v[d]))
			}
			norms[i] = math.Sqrt(acc)
		}
		for i := 0; i < f; i++ {
			if norms[i] == 0 {
				continue
			}
			vi := base[i*n : (i+1)*n]
			for j := i + 1; j < f; j++ {
				if norms[j] == 0 {
					continue
				}
				vj := base[j*n : (j+1)*n]
				var dot float64
				for d := 0; d < n; d++ {
					dot += float64(float64(vi[d]) * float64(vj[d]))
				}
				cos := math.Abs(dot) / (norms[i] * norms[j])
				out.Data()[i*f+j] += float32(cos)
				out.Data()[j*f+i] += float32(cos)
				counts[i*f+j]++
				counts[j*f+i]++
			}
		}
	}
	for i := 0; i < f; i++ {
		for j := 0; j < f; j++ {
			if i == j {
				out.Set(1, i, j)
			} else if counts[i*f+j] > 0 {
				out.Set(out.At(i, j)/float32(counts[i*f+j]), i, j)
			}
		}
	}
	return out
}

// Strategy selects the distance transform f.
type Strategy int

// Partitioning strategies (§3.3).
const (
	// Diverse sets D = I: similar features land in different towers.
	Diverse Strategy = iota
	// Coherent sets D = 1 − I: similar features land in the same tower.
	Coherent
)

// String names the strategy.
func (s Strategy) String() string {
	if s == Diverse {
		return "diverse"
	}
	return "coherent"
}

// DistanceMatrix applies the strategy's transform to an interaction matrix.
func DistanceMatrix(i *tensor.Tensor, s Strategy) *tensor.Tensor {
	out := i.Clone()
	f := i.Dim(0)
	for a := 0; a < f; a++ {
		for b := 0; b < f; b++ {
			v := i.At(a, b)
			if s == Coherent {
				v = 1 - v
			}
			if a == b {
				v = 0
			}
			out.Set(v, a, b)
		}
	}
	return out
}

// MDSResult carries the learned coordinates and optimization trace.
type MDSResult struct {
	X             *tensor.Tensor // (F, n) coordinates
	StressHistory []float64
}

// MDSEmbed solves the metric embedding with Adam (the paper names Adam as
// the optimizer for this objective). Deterministic for a given seed.
func MDSEmbed(d *tensor.Tensor, dim int, steps int, lr float64, seed uint64) *MDSResult {
	f := d.Dim(0)
	rng := tensor.NewRNG(seed)
	x := tensor.RandN(rng, 0.1, f, dim)
	// Adam state.
	m := tensor.New(f, dim)
	v := tensor.New(f, dim)
	const beta1, beta2, eps = 0.9, 0.999, 1e-8
	res := &MDSResult{X: x}

	grad := tensor.New(f, dim)
	for step := 1; step <= steps; step++ {
		grad.Zero()
		stress := 0.0
		for i := 0; i < f; i++ {
			for j := i + 1; j < f; j++ {
				var acc float64
				for p := 0; p < dim; p++ {
					diff := float64(x.At(i, p)) - float64(x.At(j, p))
					acc += float64(diff * diff)
				}
				dist := math.Sqrt(acc)
				target := float64(d.At(i, j))
				e := dist - target
				stress += float64(e * e)
				if dist < 1e-9 {
					continue
				}
				scale := 2 * e / dist
				for p := 0; p < dim; p++ {
					diff := x.At(i, p) - x.At(j, p)
					g := float32(float32(scale) * diff)
					grad.Set(grad.At(i, p)+g, i, p)
					grad.Set(grad.At(j, p)-g, j, p)
				}
			}
		}
		res.StressHistory = append(res.StressHistory, stress)
		bc1 := 1 - math.Pow(beta1, float64(step))
		bc2 := 1 - math.Pow(beta2, float64(step))
		md, vd, gd, xd := m.Data(), v.Data(), grad.Data(), x.Data()
		for k := range gd {
			g := gd[k]
			md[k] = float32(beta1*md[k]) + float32((1-beta1)*g)
			vd[k] = float32(beta2*vd[k]) + float32((1-beta2)*g*g)
			mh := float64(md[k]) / bc1
			vh := float64(vd[k]) / bc2
			xd[k] -= float32(lr * mh / (math.Sqrt(vh) + eps))
		}
	}
	return res
}

// ConstrainedKMeans clusters the rows of x (F, n) into k groups with at most
// maxSize members each (Bradley-Bennett-Demiriz style balance constraint).
// Assignment is a global greedy over (point, center) distances — points are
// matched to their closest non-full cluster in ascending distance order —
// followed by centroid updates, iterated to convergence or maxIters.
// Deterministic for a given seed. Returned groups are sorted.
func ConstrainedKMeans(x *tensor.Tensor, k, maxSize, maxIters int, seed uint64) [][]int {
	f, n := x.Dim(0), x.Dim(1)
	if k <= 0 || maxSize*k < f {
		panic(fmt.Sprintf("partition: k=%d maxSize=%d cannot hold %d points", k, maxSize, f))
	}
	rng := tensor.NewRNG(seed)

	// k-means++-style seeding for deterministic, spread-out centers.
	centers := tensor.New(k, n)
	first := rng.Intn(f)
	copy(centers.Row(0), x.Row(first))
	minDist := make([]float64, f)
	for i := range minDist {
		minDist[i] = dist2(x.Row(i), centers.Row(0))
	}
	for c := 1; c < k; c++ {
		// Pick the point farthest from existing centers (deterministic
		// farthest-first; classic ++ sampling without randomness).
		best, bestD := 0, -1.0
		for i := 0; i < f; i++ {
			if minDist[i] > bestD {
				best, bestD = i, minDist[i]
			}
		}
		copy(centers.Row(c), x.Row(best))
		for i := 0; i < f; i++ {
			if d := dist2(x.Row(i), centers.Row(c)); d < minDist[i] {
				minDist[i] = d
			}
		}
	}

	assign := make([]int, f)
	for iter := 0; iter < maxIters; iter++ {
		// Balanced assignment: all (point, center) pairs ascending.
		type pair struct {
			p, c int
			d    float64
		}
		pairs := make([]pair, 0, f*k)
		for p := 0; p < f; p++ {
			for c := 0; c < k; c++ {
				pairs = append(pairs, pair{p, c, dist2(x.Row(p), centers.Row(c))})
			}
		}
		sort.Slice(pairs, func(a, b int) bool {
			if pairs[a].d != pairs[b].d {
				return pairs[a].d < pairs[b].d
			}
			if pairs[a].p != pairs[b].p {
				return pairs[a].p < pairs[b].p
			}
			return pairs[a].c < pairs[b].c
		})
		newAssign := make([]int, f)
		for i := range newAssign {
			newAssign[i] = -1
		}
		size := make([]int, k)
		placed := 0
		for _, pr := range pairs {
			if placed == f {
				break
			}
			if newAssign[pr.p] >= 0 || size[pr.c] >= maxSize {
				continue
			}
			newAssign[pr.p] = pr.c
			size[pr.c]++
			placed++
		}
		changed := false
		for i := range assign {
			if assign[i] != newAssign[i] {
				changed = true
			}
			assign[i] = newAssign[i]
		}
		// Centroid update.
		centers.Zero()
		for p := 0; p < f; p++ {
			c := assign[p]
			cr := centers.Row(c)
			xr := x.Row(p)
			for d := 0; d < n; d++ {
				cr[d] += xr[d]
			}
		}
		for c := 0; c < k; c++ {
			if size[c] == 0 {
				continue
			}
			inv := 1 / float32(size[c])
			cr := centers.Row(c)
			for d := 0; d < n; d++ {
				cr[d] *= inv
			}
		}
		if !changed && iter > 0 {
			break
		}
	}

	groups := make([][]int, k)
	for p, c := range assign {
		groups[c] = append(groups[c], p)
	}
	for _, g := range groups {
		sort.Ints(g)
	}
	return groups
}

func dist2(a, b []float32) float64 {
	var acc float64
	for i := range a {
		d := float64(a[i]) - float64(b[i])
		acc += float64(d * d)
	}
	return acc
}
