package core

import (
	"errors"
	"fmt"
)

// TransitionTable holds the transition counts n_ij of the paper's Eq. 2,
// P_ij = n_ij / sum_k n_ik, over a state count fixed at construction: the
// quantized residual states of a task's chain (Table 2a) or the eight
// flow-graph scenarios of the switch "state table". At order 2 it also
// counts the transitions out of each (s_{t-1}, s_t) pair. Its memory is
// allocated up front, so counting and every read are allocation-free.
//
// A row without observations predicts the current state ("self"), except
// in the order-1 residual chains, whose unseen rows are uniform. An
// order-2 read falls back from the pair row to the order-1 row of the most
// recent state, then to self. Ties go to the lowest state index, and row
// totals are summed left to right.
type TransitionTable struct {
	n       int
	uniform bool      // unseen rows are uniform instead of self
	counts  []float64 // counts[i*n+j]: transitions i -> j
	pairs   []float64 // pairs[(a*n+b)*n+j]: transitions (a, b) -> j; nil at order 1
}

// NewTransitionTable returns an empty table over n states of order 1 or 2.
func NewTransitionTable(n, order int) *TransitionTable {
	t := &TransitionTable{n: n, counts: make([]float64, n*n)}
	if order == 2 {
		t.pairs = make([]float64, n*n*n)
	}
	return t
}

// Add counts one transition i -> j in the order-1 row only. An order-2
// table takes it for a transition with no pair state yet: the first of a
// sequence.
func (t *TransitionTable) Add(i, j int) { t.counts[i*t.n+j]++ }

// Add2 counts one transition (a, b) -> j in the pair row and in b's
// order-1 row.
func (t *TransitionTable) Add2(a, b, j int) {
	t.pairs[(a*t.n+b)*t.n+j]++
	t.counts[b*t.n+j]++
}

// Row returns state i's live order-1 count row.
func (t *TransitionTable) Row(i int) []float64 { return t.counts[i*t.n : (i+1)*t.n] }

func (t *TransitionTable) pairRow(a, b int) []float64 {
	k := (a*t.n + b) * t.n
	return t.pairs[k : k+t.n]
}

// RestoreRow sets state i's order-1 counts from a snapshot. It rejects a
// row of the wrong length and a negative or NaN count, which would take
// Eq. 2's probabilities out of [0, 1].
func (t *TransitionTable) RestoreRow(i int, counts []float64) error {
	if len(counts) != t.n {
		return fmt.Errorf("core: count row of %d states, want %d", len(counts), t.n)
	}
	for _, v := range counts {
		if !(v >= 0) {
			return errors.New("core: negative transition count")
		}
	}
	copy(t.Row(i), counts)
	return nil
}

func rowTotal(row []float64) float64 {
	total := 0.0
	for _, v := range row {
		total += v
	}
	return total
}

// P returns Eq. 2's probability of the transition i -> j.
func (t *TransitionTable) P(i, j int) float64 {
	row := t.Row(i)
	return t.p(row, rowTotal(row), i, j)
}

// p is P_ij for row i with the given total.
func (t *TransitionTable) p(row []float64, total float64, i, j int) float64 {
	switch {
	case total != 0:
		return row[j] / total
	case t.uniform:
		return 1 / float64(t.n)
	case i == j:
		return 1
	}
	return 0
}

// ExpectedNext returns sum_j P_ij * rep[j]: the expected next value from
// state i, given each state's representative value.
func (t *TransitionTable) ExpectedNext(i int, rep []float64) float64 {
	row := t.Row(i)
	return t.expect(row, rowTotal(row), i, rep)
}

// ExpectedNext2 is ExpectedNext from the pair state (a, b).
func (t *TransitionTable) ExpectedNext2(a, b int, rep []float64) float64 {
	row := t.pairRow(a, b)
	total := rowTotal(row)
	if total == 0 {
		row = t.Row(b)
		total = rowTotal(row)
	}
	return t.expect(row, total, b, rep)
}

func (t *TransitionTable) expect(row []float64, total float64, i int, rep []float64) float64 {
	exp := 0.0
	switch {
	case total != 0:
		for j, v := range row {
			exp += v / total * rep[j]
		}
	case t.uniform:
		for j := range row {
			exp += 1 / float64(t.n) * rep[j]
		}
	default:
		exp = rep[i]
	}
	return exp
}

// MostLikely returns the most probable successor of state i, or i itself
// when its row is unseen.
func (t *TransitionTable) MostLikely(i int) int { return mostLikely(t.Row(i), i) }

// MostLikely2 is MostLikely from the pair state (a, b).
func (t *TransitionTable) MostLikely2(a, b int) int {
	if j := mostLikely(t.pairRow(a, b), -1); j >= 0 {
		return j
	}
	return t.MostLikely(b)
}

// mostLikely returns the first index of the row's largest count, or self
// when no count is positive.
func mostLikely(row []float64, self int) int {
	best, bestC := self, 0.0
	for j, v := range row {
		if v > bestC {
			best, bestC = j, v
		}
	}
	return best
}

// AppendSuccessors appends to dst the states that follow i with
// probability at least minP, and above zero, most probable first; equal
// probabilities keep state order.
func (t *TransitionTable) AppendSuccessors(dst []int, i int, minP float64) []int {
	row := t.Row(i)
	total := rowTotal(row)
	base := len(dst)
	for j := range row {
		p := t.p(row, total, i, j)
		if p < minP || p <= 0 {
			continue
		}
		k := len(dst) - base
		dst = append(dst, j)
		for ; k > 0 && t.p(row, total, i, dst[base+k-1]) < p; k-- {
			dst[base+k] = dst[base+k-1]
		}
		dst[base+k] = j
	}
	return dst
}
