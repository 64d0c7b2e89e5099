package stats

import "math"

// RNG is a small deterministic pseudo-random number generator
// (xorshift64star). Every stochastic component of the reproduction — the
// synthetic sequence generator, noise injection, scenario scripting — draws
// from an RNG seeded explicitly, so all experiments are bit-reproducible
// without math/rand's global state.
type RNG struct {
	state uint64
}

// NewRNG returns a generator seeded with seed. A zero seed is remapped to a
// fixed non-zero constant because xorshift has an all-zero fixed point.
func NewRNG(seed uint64) *RNG {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &RNG{state: seed}
}

// Uint64 returns the next 64 random bits.
func (r *RNG) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Float64 returns a uniformly distributed value in [0, 1).
func (r *RNG) Float64() float64 {
	return float64(r.Uint64()>>11) / float64(1<<53)
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("stats: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Range returns a uniform value in [lo, hi).
func (r *RNG) Range(lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// Norm returns a normally distributed value with the given mean and standard
// deviation, using the Box-Muller transform.
func (r *RNG) Norm(mean, stddev float64) float64 {
	return mean + stddev*BoxMuller(r.NormUniforms())
}

// NormUniforms draws the two uniforms Norm transforms: u1 in [1e-12, 1),
// shifted away from zero to avoid log(0), and u2 in [0, 1).
func (r *RNG) NormUniforms() (u1, u2 float64) {
	u1 = r.Float64()
	if u1 < 1e-12 {
		u1 = 1e-12
	}
	return u1, r.Float64()
}

// BoxMuller maps NormUniforms' pair to a standard normal value.
func BoxMuller(u1, u2 float64) float64 {
	return math.Sqrt(-2*math.Log(u1)) * math.Cos(2*math.Pi*u2)
}

// Poisson returns a Poisson-distributed value with rate lambda, using
// Knuth's algorithm for small lambda and a normal approximation above 30.
// X-ray quantum noise in the synthetic generator is Poisson.
func (r *RNG) Poisson(lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		v := r.Norm(lambda, math.Sqrt(lambda))
		if v < 0 {
			return 0
		}
		return int(v + 0.5)
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= r.Float64()
		if p <= l {
			return k
		}
		k++
	}
}
