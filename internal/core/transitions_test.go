package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"testing"

	"triplec/internal/flowgraph"
)

// The forms TransitionTable replaced, kept as reference implementations:
// the dense order-1 residual chain, the map-backed order-2 chain, the
// deployed scenario table and the shadow backends' order-1 and order-2
// scenario tables. The differential tests drive each beside the table on
// the same seeded sequences and require bit-equal outputs.

type refChain struct {
	q      *Quantizer
	counts [][]float64
}

func newRefChain(q *Quantizer) *refChain {
	c := &refChain{q: q, counts: make([][]float64, q.States())}
	for i := range c.counts {
		c.counts[i] = make([]float64, q.States())
	}
	return c
}

func (c *refChain) add(a, b float64) { c.counts[c.q.State(a)][c.q.State(b)]++ }

func (c *refChain) P(i, j int) float64 {
	row := c.counts[i]
	total := 0.0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		return 1 / float64(len(row))
	}
	return row[j] / total
}

func (c *refChain) expectedNext(x float64) float64 {
	i := c.q.State(x)
	exp := 0.0
	for j := 0; j < c.q.States(); j++ {
		exp += c.P(i, j) * c.q.Representative(j)
	}
	return exp
}

type refChain2 struct {
	q      *Quantizer
	counts map[[2]int][]float64
}

func (c *refChain2) add(a, b, next float64) {
	key := [2]int{c.q.State(a), c.q.State(b)}
	row := c.counts[key]
	if row == nil {
		row = make([]float64, c.q.States())
		c.counts[key] = row
	}
	row[c.q.State(next)]++
}

func (c *refChain2) expectedNext(prev2, prev1 float64) float64 {
	key := [2]int{c.q.State(prev2), c.q.State(prev1)}
	row, ok := c.counts[key]
	if !ok {
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

type refScenarioTable struct{ counts [8][8]float64 }

func (t *refScenarioTable) P(from, to flowgraph.Scenario) float64 {
	row := t.counts[from.Index()]
	total := 0.0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		if from == to {
			return 1
		}
		return 0
	}
	return row[to.Index()] / total
}

func (t *refScenarioTable) appendSuccessors(dst []flowgraph.Scenario, from flowgraph.Scenario, minP float64) []flowgraph.Scenario {
	base := len(dst)
	var ps [8]float64
	for i := 0; i < 8; i++ {
		to := flowgraph.FromIndex(i)
		p := t.P(from, to)
		if p < minP || p <= 0 {
			continue
		}
		k := len(dst) - base
		dst = append(dst, to)
		for ; k > 0 && ps[k-1] < p; k-- {
			dst[base+k], ps[k] = dst[base+k-1], ps[k-1]
		}
		dst[base+k], ps[k] = to, p
	}
	return dst
}

func (t *refScenarioTable) mostLikelyNext(from flowgraph.Scenario) flowgraph.Scenario {
	best, bestP := from, -1.0
	for i := 0; i < 8; i++ {
		to := flowgraph.FromIndex(i)
		if p := t.P(from, to); p > bestP {
			best, bestP = to, p
		}
	}
	return best
}

type refScenarioTable1 struct{ counts [8][8]float64 }

func (t *refScenarioTable1) add(from, to int) { t.counts[from][to]++ }

func (t *refScenarioTable1) mostLikely(from int) int {
	row := &t.counts[from]
	best, bestC, total := from, 0.0, 0.0
	for j := 0; j < 8; j++ {
		total += row[j]
		if row[j] > bestC {
			best, bestC = j, row[j]
		}
	}
	if total == 0 {
		return from
	}
	return best
}

type refScenarioTable2 struct {
	pair  [64][8]float64
	first refScenarioTable1
}

func (t *refScenarioTable2) add(prev2, prev1, next int) {
	t.pair[prev2*8+prev1][next]++
	t.first.add(prev1, next)
}

func (t *refScenarioTable2) mostLikely(prev2, prev1 int) int {
	row := &t.pair[prev2*8+prev1]
	best, bestC, total := -1, 0.0, 0.0
	for j := 0; j < 8; j++ {
		total += row[j]
		if row[j] > bestC {
			best, bestC = j, row[j]
		}
	}
	if total == 0 || best < 0 {
		return t.first.mostLikely(prev1)
	}
	return best
}

// residualSeries draws short series over a few levels, so states repeat
// (ties in the counts) and many rows stay unseen.
func residualSeries(rng *rand.Rand) [][]float64 {
	levels := 2 + rng.Intn(8)
	series := make([][]float64, 1+rng.Intn(4))
	for s := range series {
		series[s] = make([]float64, 3+rng.Intn(30))
		for i := range series[s] {
			series[s][i] = float64(rng.Intn(levels)) + 0.25*float64(rng.Intn(3))
		}
	}
	return series
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// probes returns values in, between and outside the quantizer's states.
func probes(q *Quantizer) []float64 {
	xs := []float64{-1e9, 1e9}
	for s := 0; s < q.States(); s++ {
		xs = append(xs, q.Representative(s))
	}
	for _, c := range q.cuts {
		xs = append(xs, c, math.Nextafter(c, math.Inf(1)))
	}
	return xs
}

// TestTransitionTableMatchesChain: the order-1 residual chain over the
// table equals the dense chain it replaced — P and ExpectedNext, unseen
// (uniform) rows included — after training and after each online add.
func TestTransitionTableMatchesChain(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for iter := 0; iter < 300; iter++ {
		series := residualSeries(rng)
		c, err := TrainChain(series, 1+rng.Intn(10))
		if err != nil {
			continue
		}
		ref := newRefChain(c.q)
		for _, s := range series {
			for i := 1; i < len(s); i++ {
				ref.add(s[i-1], s[i])
			}
		}
		for step := 0; step < 4; step++ {
			n := c.States()
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					if !sameBits(c.P(i, j), ref.P(i, j)) {
						t.Fatalf("iter %d: P(%d,%d) = %v, reference %v", iter, i, j, c.P(i, j), ref.P(i, j))
					}
				}
			}
			for _, x := range probes(c.q) {
				if got, want := c.ExpectedNext(x), ref.expectedNext(x); !sameBits(got, want) {
					t.Fatalf("iter %d: ExpectedNext(%v) = %v, reference %v", iter, x, got, want)
				}
			}
			a, b := float64(rng.Intn(10)), float64(rng.Intn(10))
			c.AddTransition(a, b)
			ref.add(a, b)
		}
	}
}

// TestTransitionTableMatchesChain2: the dense order-2 chain equals the map
// form — pair row, then the order-1 row of the most recent state, then its
// representative — with online adds, and reports the same sparsity.
func TestTransitionTableMatchesChain2(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 300; iter++ {
		series := residualSeries(rng)
		c, err := TrainOrder2(series, 1+rng.Intn(10))
		if err != nil {
			continue
		}
		ref := &refChain2{q: c.q, counts: map[[2]int][]float64{}}
		for _, s := range series {
			for i := 2; i < len(s); i++ {
				ref.add(s[i-2], s[i-1], s[i])
			}
		}
		for step := 0; step < 4; step++ {
			if c.ObservedPairs() != len(ref.counts) || c.PairStates() != c.q.States()*c.q.States() {
				t.Fatalf("iter %d: observed %d of %d pairs, reference %d", iter, c.ObservedPairs(), c.PairStates(), len(ref.counts))
			}
			xs := probes(c.q)
			for _, x2 := range xs {
				for _, x1 := range xs {
					if got, want := c.ExpectedNext(x2, x1), ref.expectedNext(x2, x1); !sameBits(got, want) {
						t.Fatalf("iter %d: ExpectedNext(%v, %v) = %v, reference %v", iter, x2, x1, got, want)
					}
				}
			}
			a, b, next := float64(rng.Intn(10)), float64(rng.Intn(10)), float64(rng.Intn(10))
			c.AddTransition(a, b, next)
			ref.add(a, b, next)
		}
	}
}

// TestTransitionTableMatchesScenarioTables drives the deployed state table
// and the shadow backends' order-1 and order-2 tables beside their old
// forms: sequences over a few scenarios (unseen rows, tied counts), each
// started with an order-1-only add, then online adds across a sequence
// boundary the way the order-2 backend counts them.
func TestTransitionTableMatchesScenarioTables(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var got, want [9]flowgraph.Scenario
	for iter := 0; iter < 300; iter++ {
		deployed, refDeployed := NewScenarioTable(), &refScenarioTable{}
		first, refFirst := NewTransitionTable(8, 1), &refScenarioTable1{}
		second, refSecond := NewTransitionTable(8, 2), &refScenarioTable2{}
		used := 1 + rng.Intn(8)
		for seqs := rng.Intn(5); seqs >= 0; seqs-- {
			seq := make([]int, 1+rng.Intn(12))
			for i := range seq {
				seq[i] = rng.Intn(used)
			}
			for i := 1; i < len(seq); i++ {
				from, to := flowgraph.FromIndex(seq[i-1]), flowgraph.FromIndex(seq[i])
				deployed.Add(from, to)
				refDeployed.counts[seq[i-1]][seq[i]]++
				first.Add(seq[i-1], seq[i])
				refFirst.add(seq[i-1], seq[i])
				if i >= 2 {
					second.Add2(seq[i-2], seq[i-1], seq[i])
					refSecond.add(seq[i-2], seq[i-1], seq[i])
				} else {
					second.Add(seq[0], seq[1])
					refSecond.first.add(seq[0], seq[1])
				}
			}
		}
		for a := 0; a < 8; a++ {
			from := flowgraph.FromIndex(a)
			for b := 0; b < 8; b++ {
				to := flowgraph.FromIndex(b)
				if p, q := deployed.Table.P(a, b), refDeployed.P(from, to); !sameBits(p, q) {
					t.Fatalf("iter %d: P(%d,%d) = %v, reference %v", iter, a, b, p, q)
				}
				if g, w := second.MostLikely2(a, b), refSecond.mostLikely(a, b); g != w {
					t.Fatalf("iter %d: order-2 MostLikely2(%d,%d) = %d, reference %d", iter, a, b, g, w)
				}
			}
			if g, w := deployed.MostLikelyNext(from), refDeployed.mostLikelyNext(from); g != w {
				t.Fatalf("iter %d: MostLikelyNext(%d) = %v, reference %v", iter, a, g, w)
			}
			if g, w := first.MostLikely(a), refFirst.mostLikely(a); g != w {
				t.Fatalf("iter %d: order-1 MostLikely(%d) = %d, reference %d", iter, a, g, w)
			}
			if g, w := second.MostLikely(a), refSecond.first.mostLikely(a); g != w {
				t.Fatalf("iter %d: order-2 table's MostLikely(%d) = %d, reference %d", iter, a, g, w)
			}
			for _, minP := range []float64{0, 0.04, 0.2, 0.5, 1, 1.5} {
				g := deployed.AppendSuccessors(got[:1], from, minP)
				w := refDeployed.appendSuccessors(want[:1], from, minP)
				if len(g) != len(w) {
					t.Fatalf("iter %d: successors of %d at %v = %v, reference %v", iter, a, minP, g, w)
				}
				for k := range g {
					if g[k] != w[k] {
						t.Fatalf("iter %d: successors of %d at %v = %v, reference %v", iter, a, minP, g, w)
					}
				}
			}
		}
	}
}

// TestLoadRejectsNegativeCounts: a snapshot whose residual chain or state
// table holds a negative transition count fails to load, where it used to
// load and read back probabilities outside [0, 1].
func TestLoadRejectsNegativeCounts(t *testing.T) {
	p, err := Train(trainSets(t, 2, 40), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*predictorJSON)
	}{
		{"chain count", func(s *predictorJSON) { s.Chains["RDG"].Counts[0][1] = -2 }},
		{"scenario count", func(s *predictorJSON) { s.Scenarios[0][0] = -5 }},
	} {
		var snap predictorJSON
		if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("%s: unmutated snapshot rejected: %v", c.name, err)
		}
		c.mutate(&snap)
		mutated, err := json.Marshal(snap)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(mutated)); err == nil || !strings.Contains(err.Error(), "negative") {
			t.Fatalf("%s: negative count loaded (err %v)", c.name, err)
		}
	}
}
