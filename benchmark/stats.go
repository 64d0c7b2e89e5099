package main

import (
	"math"

	"triplec/internal/stats"
)

// percentile returns the p-quantile (0..1) of xs by linear interpolation
// between order statistics; 0 for a sample with nothing to take it from.
func percentile(xs []float64, p float64) float64 {
	v, err := stats.Percentile(xs, p*100)
	if err != nil {
		return 0
	}
	return v
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// spread is the distance between the first and third quartile as a share of
// the median — the run-to-run noise figure the bounds are judged against.
// Fewer than two values, or a zero median, have no spread.
func spread(xs []float64) float64 {
	m := median(xs)
	if len(xs) < 2 || m == 0 {
		return 0
	}
	return math.Abs((percentile(xs, 0.75) - percentile(xs, 0.25)) / m)
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }
