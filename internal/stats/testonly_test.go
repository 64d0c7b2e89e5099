package stats

import (
	"errors"
	"math"
)

// Summaries no program computes, kept with the tests that pin their
// behaviour.

// Sum returns the sum of xs.
func Sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// Pearson returns the Pearson correlation coefficient of two equal-length
// series — used to report how tightly predictions track actuals beyond the
// MAPE headline.
func Pearson(xs, ys []float64) (float64, error) {
	if len(xs) != len(ys) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(xs) < 2 {
		return 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return 0, errors.New("stats: constant series has no correlation")
	}
	return sxy / math.Sqrt(sxx*syy), nil
}

// Histogram bins xs into nbins equal-width bins spanning [min, max] and
// returns the counts and the bin edges (nbins+1 values). Values exactly at
// max land in the last bin. NaN and Inf samples are skipped — a single
// non-finite sample would otherwise poison the [min, max] span and with it
// every bin edge.
func Histogram(xs []float64, nbins int) (counts []int, edges []float64, err error) {
	if len(xs) == 0 {
		return nil, nil, ErrEmpty
	}
	if nbins < 1 {
		return nil, nil, errors.New("stats: nbins must be >= 1")
	}
	xs = finiteOnly(xs)
	if len(xs) == 0 {
		return nil, nil, errors.New("stats: no finite samples")
	}
	lo, hi := Min(xs), Max(xs)
	if hi == lo {
		hi = lo + 1 // all mass in one bin; widen to avoid zero width
	}
	counts = make([]int, nbins)
	edges = make([]float64, nbins+1)
	width := (hi - lo) / float64(nbins)
	for i := range edges {
		edges[i] = lo + float64(i)*width
	}
	for _, x := range xs {
		idx := int((x - lo) / width)
		if idx >= nbins {
			idx = nbins - 1
		}
		if idx < 0 {
			idx = 0
		}
		counts[idx]++
	}
	return counts, edges, nil
}

// Perm returns a random permutation of [0, n) using Fisher-Yates.
func (r *RNG) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}
