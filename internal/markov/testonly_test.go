package markov

import (
	"errors"
	"math"
)

// Chain diagnostics no program runs, kept with the tests that pin their
// behaviour.

// Decay multiplies every transition count by factor in (0, 1], discounting
// old observations so on-line training can track non-stationary behaviour.
// Applying Decay periodically turns the count matrix into an exponentially
// weighted transition estimate. A factor outside (0, 1] is ignored.
func (c *Chain) Decay(factor float64) {
	if factor <= 0 || factor > 1 {
		return
	}
	for i := range c.counts {
		for j := range c.counts[i] {
			c.counts[i][j] *= factor
		}
	}
}

// TotalTransitions returns the (possibly decayed) total transition mass.
func (c *Chain) TotalTransitions() float64 {
	total := 0.0
	for i := range c.counts {
		for j := range c.counts[i] {
			total += c.counts[i][j]
		}
	}
	return total
}

// Matrix returns the full transition-probability matrix (Table 2a).
func (c *Chain) Matrix() [][]float64 {
	n := c.States()
	out := make([][]float64, n)
	for i := 0; i < n; i++ {
		out[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			out[i][j] = c.P(i, j)
		}
	}
	return out
}

// MostLikelyNext returns the representative of the most probable next state.
func (c *Chain) MostLikelyNext(x float64) float64 {
	i := c.q.State(x)
	best, bestP := 0, -1.0
	for j := 0; j < c.States(); j++ {
		if p := c.P(i, j); p > bestP {
			best, bestP = j, p
		}
	}
	return c.q.Representative(best)
}

// Stationary returns the stationary distribution of the chain, computed by
// power iteration. It errors when the iteration does not converge (e.g. a
// strictly periodic chain).
func (c *Chain) Stationary() ([]float64, error) {
	n := c.States()
	pi := make([]float64, n)
	for i := range pi {
		pi[i] = 1 / float64(n)
	}
	next := make([]float64, n)
	for iter := 0; iter < 10000; iter++ {
		for j := range next {
			next[j] = 0
		}
		for i := 0; i < n; i++ {
			if pi[i] == 0 {
				continue
			}
			for j := 0; j < n; j++ {
				next[j] += pi[i] * c.P(i, j)
			}
		}
		delta := 0.0
		for j := range next {
			delta += math.Abs(next[j] - pi[j])
		}
		copy(pi, next)
		if delta < 1e-12 {
			return pi, nil
		}
	}
	return nil, errors.New("markov: stationary distribution did not converge")
}

// EntropyRate returns the chain's entropy rate in bits:
// H = -sum_i pi_i sum_j P_ij log2 P_ij, with pi the stationary
// distribution. Lower entropy means the chain's next state is more
// predictable — a diagnostic for how much the Markov model can ever help.
func (c *Chain) EntropyRate() (float64, error) {
	pi, err := c.Stationary()
	if err != nil {
		return 0, err
	}
	h := 0.0
	for i := 0; i < c.States(); i++ {
		rowH := 0.0
		for j := 0; j < c.States(); j++ {
			p := c.P(i, j)
			if p > 0 {
				rowH -= p * math.Log2(p)
			}
		}
		h += pi[i] * rowH
	}
	return h, nil
}

// States returns the base state count; the effective state space is its
// square.
func (c *Chain2) States() int { return c.q.States() }
