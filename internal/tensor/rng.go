package tensor

import "math"

// RNG is a deterministic SplitMix64 pseudo-random generator. Every stochastic
// component of the reproduction (initializers, synthetic data, partition
// seeds) draws from an explicitly seeded RNG so that experiments replay
// bit-for-bit.
type RNG struct {
	state uint64
	// spare caches the second output of the Box-Muller transform.
	spare    float64
	hasSpare bool
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64-bit value (SplitMix64).
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Intn returns a uniform integer in [0, n).
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn requires n > 0")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniform value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// NormFloat64 returns a standard normal deviate via Box-Muller.
func (r *RNG) NormFloat64() float64 {
	if r.hasSpare {
		r.hasSpare = false
		return r.spare
	}
	for {
		u := r.Float64()
		v := r.Float64()
		if u <= 1e-300 {
			continue
		}
		mag := math.Sqrt(-2 * math.Log(u))
		r.spare = mag * math.Sin(2*math.Pi*v)
		r.hasSpare = true
		return mag * math.Cos(2*math.Pi*v)
	}
}

// Split derives an independent child generator. Children seeded with
// distinct labels produce independent streams, which lets model components
// own private RNGs derived from one experiment seed.
func (r *RNG) Split(label uint64) *RNG {
	return NewRNG(r.Uint64() ^ (label * 0x9e3779b97f4a7c15))
}

// RandN returns a tensor of i.i.d. N(0, std²) values.
func RandN(r *RNG, std float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(r.NormFloat64() * std)
	}
	return t
}

// RandUniform returns a tensor of i.i.d. U[lo, hi) values.
func RandUniform(r *RNG, lo, hi float64, shape ...int) *Tensor {
	t := New(shape...)
	for i := range t.data {
		t.data[i] = float32(lo + float64((hi-lo)*r.Float64()))
	}
	return t
}

// XavierUniform returns a tensor initialized with the Glorot/Xavier uniform
// scheme for a (fanOut, fanIn) weight matrix.
func XavierUniform(r *RNG, fanIn, fanOut int, shape ...int) *Tensor {
	bound := math.Sqrt(6.0 / float64(fanIn+fanOut))
	return RandUniform(r, -bound, bound, shape...)
}
