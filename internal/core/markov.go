package core

// The short-term part of Triple-C's computation-time model (paper Section
// 4): a first-order finite-state Markov chain over adaptively quantized
// processing-time values. Following the paper:
//
//   - the base state count is M = Cmax/sigmaC (largest measured value over
//     the standard deviation), and the model uses approximately 2M states
//     for sufficient accuracy;
//   - "the quantization intervals are adaptively chosen such that each
//     interval contains on the average the same amount of samples"
//     (equal-frequency quantization);
//   - the transition probabilities are estimated by Eq. 2,
//     Pij = nij / sum_k nik, in a TransitionTable.

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"

	"triplec/internal/stats"
)

// Quantizer maps continuous values to discrete states via equal-frequency
// intervals.
type Quantizer struct {
	// cuts[i] is the upper boundary of state i; the last state is unbounded.
	cuts []float64
	// rep[i] is the representative value of state i (mean of its training
	// samples), used to turn state predictions back into values.
	rep []float64
}

// StateCountRule returns the paper's state count for a series: twice
// M = Cmax/sigma, clamped to [2, maxStates]. For residual series (centered
// near zero) Cmax is the largest absolute value.
func StateCountRule(xs []float64, maxStates int) int {
	if len(xs) < 2 {
		return 2
	}
	sigma := stats.StdDev(xs)
	if sigma == 0 {
		return 2
	}
	cmax := 0.0
	for _, x := range xs {
		if a := math.Abs(x); a > cmax {
			cmax = a
		}
	}
	m := int(math.Round(cmax / sigma))
	n := 2 * m
	if n < 2 {
		n = 2
	}
	if maxStates >= 2 && n > maxStates {
		n = maxStates
	}
	return n
}

// NewQuantizer builds an equal-frequency quantizer with n states from the
// training samples. n is clamped to the number of distinct sample positions
// available.
func NewQuantizer(samples []float64, n int) (*Quantizer, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: no samples")
	}
	if n < 1 {
		return nil, errors.New("core: need at least one state")
	}
	if n > len(samples) {
		n = len(samples)
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)

	q := &Quantizer{}
	// Equal-frequency boundaries: split the sorted samples into n runs,
	// cutting halfway between the bordering samples so boundary values
	// classify stably.
	for i := 1; i < n; i++ {
		idx := i * len(sorted) / n
		cut := sorted[idx]
		if idx > 0 {
			cut = (sorted[idx-1] + sorted[idx]) / 2
		}
		q.cuts = append(q.cuts, cut)
	}
	// Deduplicate boundaries (ties collapse states) and drop a boundary at
	// the sample maximum, which would create an empty top state.
	q.cuts = dedupe(q.cuts)
	if len(q.cuts) > 0 && q.cuts[len(q.cuts)-1] >= sorted[len(sorted)-1] {
		q.cuts = q.cuts[:len(q.cuts)-1]
	}
	// An empty interval inherits its lower neighbour's representative.
	q.setReps(samples, func(i int) float64 {
		if i > 0 {
			return q.rep[i-1]
		}
		return 0
	})
	return q, nil
}

// setReps sets each state's representative to the mean of its training
// samples, and an empty state's to empty(i).
func (q *Quantizer) setReps(samples []float64, empty func(i int) float64) {
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
		if counts[i] > 0 {
			q.rep[i] = sums[i] / float64(counts[i])
		} else {
			q.rep[i] = empty(i)
		}
	}
}

func dedupe(cuts []float64) []float64 {
	out := cuts[:0]
	for i, c := range cuts {
		if i == 0 || c > out[len(out)-1] {
			out = append(out, c)
		}
	}
	return out
}

// States returns the number of discrete states.
func (q *Quantizer) States() int { return len(q.cuts) + 1 }

// State maps a value to its state index via binary search.
func (q *Quantizer) State(x float64) int {
	return sort.SearchFloat64s(q.cuts, x)
}

// Chain is a first-order Markov chain over quantizer states.
type Chain struct {
	q *Quantizer
	t *TransitionTable // order 1; unseen rows are uniform
}

// NewChain returns an untrained chain over q's states.
func NewChain(q *Quantizer) (*Chain, error) {
	if q == nil {
		return nil, errors.New("core: nil quantizer")
	}
	t := NewTransitionTable(q.States(), 1)
	t.uniform = true
	return &Chain{q: q, t: t}, nil
}

// TrainChain builds a quantizer (with the paper's state-count rule capped at
// maxStates; pass 0 for the paper's default cap of 10 as in Table 2a) and a
// chain from one or more training series. Transitions are only counted
// within each series, never across series boundaries.
func TrainChain(series [][]float64, maxStates int) (*Chain, error) {
	q, err := quantizeSeries(series, maxStates, 1)
	if err != nil {
		return nil, err
	}
	return TrainWithQuantizer(q, series)
}

// quantizeSeries pools the training series into the equal-frequency
// quantizer of the paper's state-count rule, capped at maxStates (0: 10),
// for a chain of the given order.
func quantizeSeries(series [][]float64, maxStates, order int) (*Quantizer, error) {
	if maxStates <= 0 {
		maxStates = 10
	}
	var all []float64
	for _, s := range series {
		all = append(all, s...)
	}
	if len(all) < order+1 {
		return nil, fmt.Errorf("core: insufficient training data for order %d", order)
	}
	return NewQuantizer(all, StateCountRule(all, maxStates))
}

// AddSeries counts the transitions of one contiguous series.
func (c *Chain) AddSeries(xs []float64) {
	for i := 1; i < len(xs); i++ {
		c.AddTransition(xs[i-1], xs[i])
	}
}

// AddTransition counts a single observed transition from value a to value b
// (this is the online-training hook the paper's profiling step uses).
func (c *Chain) AddTransition(a, b float64) {
	c.t.Add(c.q.State(a), c.q.State(b))
}

// States returns the chain's state count.
func (c *Chain) States() int { return c.q.States() }

// P returns the transition probability from state i to state j per Eq. 2:
// Pij = nij / sum_k nik. Rows without observations fall back to uniform.
func (c *Chain) P(i, j int) float64 { return c.t.P(i, j) }

// ExpectedNext returns the expected value of the next sample given the
// current value x: sum_j P(state(x), j) * representative(j).
func (c *Chain) ExpectedNext(x float64) float64 {
	return c.t.ExpectedNext(c.q.State(x), c.q.rep)
}

// Snapshot exports the quantizer's boundaries and representatives for
// persistence.
func (q *Quantizer) Snapshot() (cuts, reps []float64) {
	return append([]float64(nil), q.cuts...), append([]float64(nil), q.rep...)
}

// RestoreQuantizer rebuilds a quantizer from a Snapshot.
func RestoreQuantizer(cuts, reps []float64) (*Quantizer, error) {
	if len(reps) != len(cuts)+1 {
		return nil, errors.New("core: reps must have exactly one more entry than cuts")
	}
	for i := 1; i < len(cuts); i++ {
		if cuts[i] <= cuts[i-1] {
			return nil, errors.New("core: cuts must be strictly increasing")
		}
	}
	return &Quantizer{
		cuts: append([]float64(nil), cuts...),
		rep:  append([]float64(nil), reps...),
	}, nil
}

// Counts exports a copy of the transition-count matrix for persistence.
func (c *Chain) Counts() [][]float64 {
	out := make([][]float64, c.States())
	for i := range out {
		out[i] = append([]float64(nil), c.t.Row(i)...)
	}
	return out
}

// RestoreChain rebuilds a chain from a quantizer and a count matrix.
func RestoreChain(q *Quantizer, counts [][]float64) (*Chain, error) {
	c, err := NewChain(q)
	if err != nil {
		return nil, err
	}
	if len(counts) != q.States() {
		return nil, errors.New("core: count matrix does not match state count")
	}
	for i, row := range counts {
		if err := c.t.RestoreRow(i, row); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Render prints the transition matrix in the paper's Table 2a layout.
func (c *Chain) Render() string {
	n := c.States()
	var b strings.Builder
	b.WriteString("    ")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "   s%-3d", j)
	}
	b.WriteByte('\n')
	for i := 0; i < n; i++ {
		fmt.Fprintf(&b, "s%-3d", i)
		for j := 0; j < n; j++ {
			fmt.Fprintf(&b, "  %.2f ", c.P(i, j))
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// NewEqualWidthQuantizer builds a quantizer with n equal-width intervals
// spanning the sample range — the non-adaptive alternative to the paper's
// equal-frequency choice ("the quantization intervals are adaptively chosen
// such that each interval contains on the average the same amount of
// samples"). Kept for the ablation comparing the two.
func NewEqualWidthQuantizer(samples []float64, n int) (*Quantizer, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: no samples")
	}
	if n < 1 {
		return nil, errors.New("core: need at least one state")
	}
	lo, hi := stats.Min(samples), stats.Max(samples)
	width := (hi - lo) / float64(n)
	q := &Quantizer{}
	if hi > lo {
		for i := 1; i < n; i++ {
			q.cuts = append(q.cuts, lo+float64(i)*width)
		}
	}
	// Empty intervals take their midpoint (equal-width intervals can be
	// empty — the sparsity problem the adaptive scheme avoids).
	q.setReps(samples, func(i int) float64 {
		if hi > lo {
			return lo + (float64(i)+0.5)*width
		}
		return lo
	})
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
	q *Quantizer
	t *TransitionTable // order 2
}

// TrainOrder2 builds a second-order chain with the same quantization rule
// as TrainChain.
func TrainOrder2(series [][]float64, maxStates int) (*Chain2, error) {
	q, err := quantizeSeries(series, maxStates, 2)
	if err != nil {
		return nil, err
	}
	c := &Chain2{q: q, t: NewTransitionTable(q.States(), 2)}
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

// AddTransition counts one observed (a, b) -> next transition. It writes
// no map and allocates nothing, so it may run on the frame path.
func (c *Chain2) AddTransition(a, b, next float64) {
	c.t.Add2(c.q.State(a), c.q.State(b), c.q.State(next))
}

// PairStates returns the size of the order-2 state space (States^2).
func (c *Chain2) PairStates() int { return c.q.States() * c.q.States() }

// ObservedPairs returns how many of the pair states were ever visited —
// the sparsity diagnostic behind the paper's "number of samples for each
// estimate is very small" remark.
func (c *Chain2) ObservedPairs() int {
	n := c.q.States()
	seen := 0
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			if rowTotal(c.t.pairRow(a, b)) > 0 {
				seen++
			}
		}
	}
	return seen
}

// ExpectedNext returns the expected next value given the last two values.
// An unseen pair state falls back to the first-order row of its most
// recent state, and an unseen state to its own representative.
func (c *Chain2) ExpectedNext(prev2, prev1 float64) float64 {
	return c.t.ExpectedNext2(c.q.State(prev2), c.q.State(prev1), c.q.rep)
}
