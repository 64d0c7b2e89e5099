package markov

import (
	"errors"

	"triplec/internal/stats"
)

// NewEqualWidthQuantizer builds a quantizer with n equal-width intervals
// spanning the sample range — the non-adaptive alternative to the paper's
// equal-frequency choice ("the quantization intervals are adaptively chosen
// such that each interval contains on the average the same amount of
// samples"). Kept for the ablation comparing the two.
func NewEqualWidthQuantizer(samples []float64, n int) (*Quantizer, error) {
	if len(samples) == 0 {
		return nil, errors.New("markov: no samples")
	}
	if n < 1 {
		return nil, errors.New("markov: need at least one state")
	}
	lo, hi := stats.Min(samples), stats.Max(samples)
	q := &Quantizer{}
	if hi > lo {
		width := (hi - lo) / float64(n)
		for i := 1; i < n; i++ {
			q.cuts = append(q.cuts, lo+float64(i)*width)
		}
	}
	// Representatives: mean of the samples falling in each interval, with
	// empty intervals inheriting the midpoint (equal-width intervals can be
	// empty — the sparsity problem the adaptive scheme avoids).
	k := len(q.cuts) + 1
	sums := make([]float64, k)
	counts := make([]int, k)
	for _, x := range samples {
		s := q.State(x)
		sums[s] += x
		counts[s]++
	}
	q.rep = make([]float64, k)
	for i := range q.rep {
		switch {
		case counts[i] > 0:
			q.rep[i] = sums[i] / float64(counts[i])
		case hi > lo:
			width := (hi - lo) / float64(n)
			q.rep[i] = lo + (float64(i)+0.5)*width
		default:
			q.rep[i] = lo
		}
	}
	return q, nil
}

// TrainWithQuantizer builds a chain over an explicitly constructed
// quantizer (used by the quantization ablation).
func TrainWithQuantizer(q *Quantizer, series [][]float64) (*Chain, error) {
	c, err := NewChain(q)
	if err != nil {
		return nil, err
	}
	for _, s := range series {
		c.AddSeries(s)
	}
	return c, nil
}

// Chain2 is a second-order Markov chain: the state is the pair of the two
// most recent quantized values. The paper's Section 4 notes that
// higher-order processes capture longer dependencies "but the state space
// will grow exponentially" and transition estimates become statistically
// insignificant; Chain2 exists to demonstrate exactly that trade-off.
type Chain2 struct {
	q      *Quantizer
	counts map[[2]int][]float64 // (s_{t-1}, s_t) -> counts over s_{t+1}
}

// TrainOrder2 builds a second-order chain with the same quantization rule
// as Train.
func TrainOrder2(series [][]float64, maxStates int) (*Chain2, error) {
	if maxStates <= 0 {
		maxStates = 10
	}
	var all []float64
	for _, s := range series {
		all = append(all, s...)
	}
	if len(all) < 3 {
		return nil, errors.New("markov: insufficient training data for order 2")
	}
	n := StateCountRule(all, maxStates)
	q, err := NewQuantizer(all, n)
	if err != nil {
		return nil, err
	}
	c := &Chain2{q: q, counts: map[[2]int][]float64{}}
	for _, s := range series {
		c.AddSeries(s)
	}
	return c, nil
}

// AddSeries counts the order-2 transitions of one contiguous series.
func (c *Chain2) AddSeries(xs []float64) {
	for i := 2; i < len(xs); i++ {
		c.AddTransition(xs[i-2], xs[i-1], xs[i])
	}
}

// AddTransition counts one observed (a, b) -> next transition.
func (c *Chain2) AddTransition(a, b, next float64) {
	key := [2]int{c.q.State(a), c.q.State(b)}
	row := c.counts[key]
	if row == nil {
		row = make([]float64, c.q.States())
		c.counts[key] = row
	}
	row[c.q.State(next)]++
}

// Quantizer exposes the chain's quantizer so callers can lift the trained
// chain into a dense, allocation-free representation (the shadow-evaluation
// backends do this: the map-backed counts here are fine for training but a
// map insert on the frame path would allocate).
func (c *Chain2) Quantizer() *Quantizer { return c.q }

// Row returns the live transition-count row over next states for pair
// state (a, b), or nil when the pair was never observed during training.
func (c *Chain2) Row(a, b int) []float64 { return c.counts[[2]int{a, b}] }

// PairStates returns the size of the order-2 state space (States^2).
func (c *Chain2) PairStates() int { return c.q.States() * c.q.States() }

// ObservedPairs returns how many of the pair states were ever visited —
// the sparsity diagnostic behind the paper's "number of samples for each
// estimate is very small" remark.
func (c *Chain2) ObservedPairs() int { return len(c.counts) }

// ExpectedNext returns the expected next value given the last two values.
// Unseen pair states fall back to the first-order expectation implied by
// marginalizing over the pair's most recent state.
func (c *Chain2) ExpectedNext(prev2, prev1 float64) float64 {
	key := [2]int{c.q.State(prev2), c.q.State(prev1)}
	row, ok := c.counts[key]
	if !ok {
		// Fallback: average the rows sharing the most recent state.
		var acc []float64
		for k, r := range c.counts {
			if k[1] != key[1] {
				continue
			}
			if acc == nil {
				acc = make([]float64, len(r))
			}
			for j, v := range r {
				acc[j] += v
			}
		}
		if acc == nil {
			return c.q.Representative(key[1])
		}
		row = acc
	}
	total := 0.0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		return c.q.Representative(key[1])
	}
	exp := 0.0
	for j, v := range row {
		exp += v / total * c.q.Representative(j)
	}
	return exp
}
