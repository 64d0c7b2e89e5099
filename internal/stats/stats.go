// Package stats provides the small statistics substrate used throughout the
// Triple-C reproduction: moments, autocorrelation, histograms, percentiles
// and least-squares fitting.
//
// The package is deliberately dependency-free and operates on float64 slices;
// all higher-level resource series (computation times in milliseconds, cache
// occupancies in bytes, bandwidths in MB/s) are represented that way before
// they reach the modeling layers in internal/core.
package stats

import (
	"errors"
	"math"
	"sort"
)

// ErrEmpty is returned by functions that cannot operate on an empty series.
var ErrEmpty = errors.New("stats: empty series")

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Variance returns the population variance of xs (dividing by n, not n-1),
// which is what the paper's state-count rule M = Cmax/sigma implies for long
// profiling traces. Returns 0 for series shorter than 2.
func Variance(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := Mean(xs)
	sum := 0.0
	for _, x := range xs {
		d := x - m
		sum += d * d
	}
	return sum / float64(len(xs))
}

// StdDev returns the population standard deviation of xs.
func StdDev(xs []float64) float64 { return math.Sqrt(Variance(xs)) }

// Min returns the minimum of xs. It panics on an empty slice because a
// missing extremum indicates a logic error upstream.
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Min of empty series")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x < m {
			m = x
		}
	}
	return m
}

// Max returns the maximum of xs. It panics on an empty slice.
func Max(xs []float64) float64 {
	if len(xs) == 0 {
		panic("stats: Max of empty series")
	}
	m := xs[0]
	for _, x := range xs[1:] {
		if x > m {
			m = x
		}
	}
	return m
}

// finiteOnly returns the finite samples of xs, reusing xs when every sample
// already is (the common case pays no copy).
func finiteOnly(xs []float64) []float64 {
	for i, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			out := make([]float64, i, len(xs))
			copy(out, xs[:i])
			for _, y := range xs[i+1:] {
				if !math.IsNaN(y) && !math.IsInf(y, 0) {
					out = append(out, y)
				}
			}
			return out
		}
	}
	return xs
}

// Percentile returns the p-th percentile (0 <= p <= 100) of xs using linear
// interpolation between closest ranks. NaN and Inf samples are skipped —
// sort.Float64s places NaNs unpredictably, which would poison the rank
// interpolation for every finite sample (the same hazard the Chart NaN-skip
// fix closed for plotting). It returns an error for empty input, input with
// no finite samples, or out-of-range p.
func Percentile(xs []float64, p float64) (float64, error) {
	if len(xs) == 0 {
		return 0, ErrEmpty
	}
	if p < 0 || p > 100 || math.IsNaN(p) {
		return 0, errors.New("stats: percentile out of range")
	}
	xs = finiteOnly(xs)
	if len(xs) == 0 {
		return 0, errors.New("stats: no finite samples")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if len(sorted) == 1 {
		return sorted[0], nil
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo], nil
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac, nil
}

// Autocorrelation returns the normalized autocorrelation function of xs for
// lags 0..maxLag inclusive. Lag 0 is always 1 (for non-constant series).
// The paper validates Markov-chain applicability by checking that this
// function decays exponentially; see ExponentialDecayFit.
func Autocorrelation(xs []float64, maxLag int) ([]float64, error) {
	n := len(xs)
	if n == 0 {
		return nil, ErrEmpty
	}
	if maxLag >= n {
		maxLag = n - 1
	}
	m := Mean(xs)
	denom := 0.0
	for _, x := range xs {
		d := x - m
		denom += d * d
	}
	acf := make([]float64, maxLag+1)
	if denom == 0 {
		// Constant series: define acf as 1 at lag 0, 0 elsewhere.
		acf[0] = 1
		return acf, nil
	}
	for lag := 0; lag <= maxLag; lag++ {
		num := 0.0
		for i := 0; i+lag < n; i++ {
			num += (xs[i] - m) * (xs[i+lag] - m)
		}
		acf[lag] = num / denom
	}
	return acf, nil
}

// ExponentialDecayFit fits acf[lag] ~= exp(-lambda*lag) over the positive
// prefix of the autocorrelation function and returns the decay rate lambda
// and the RMS residual of the fit in log space. A small residual indicates
// the exponential-decay property required for first-order Markov modeling.
func ExponentialDecayFit(acf []float64) (lambda, residual float64, err error) {
	// Collect lags with strictly positive correlation; stop at the first
	// non-positive value since log is undefined there and the tail is noise.
	var lags, logs []float64
	for lag := 1; lag < len(acf); lag++ {
		if acf[lag] <= 0 {
			break
		}
		lags = append(lags, float64(lag))
		logs = append(logs, math.Log(acf[lag]))
	}
	if len(lags) < 2 {
		return 0, 0, errors.New("stats: insufficient positive autocorrelation prefix")
	}
	// Least squares through the origin: log acf = -lambda * lag.
	num, den := 0.0, 0.0
	for i := range lags {
		num += lags[i] * logs[i]
		den += lags[i] * lags[i]
	}
	lambda = -num / den
	// RMS residual in log space.
	ss := 0.0
	for i := range lags {
		r := logs[i] + lambda*lags[i]
		ss += r * r
	}
	residual = math.Sqrt(ss / float64(len(lags)))
	return lambda, residual, nil
}

// LinearFit fits y = a*x + b by ordinary least squares and returns the slope
// a, intercept b and coefficient of determination r2. The paper's Eq. 3
// (y = 0.067*t + 20.6) is obtained this way from the ROI sweep.
func LinearFit(xs, ys []float64) (a, b, r2 float64, err error) {
	if len(xs) != len(ys) {
		return 0, 0, 0, errors.New("stats: length mismatch")
	}
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, 0, ErrEmpty
	}
	mx, my := Mean(xs), Mean(ys)
	sxx, sxy, syy := 0.0, 0.0, 0.0
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxx += dx * dx
		sxy += dx * dy
		syy += dy * dy
	}
	if sxx == 0 {
		return 0, 0, 0, errors.New("stats: degenerate x values")
	}
	a = sxy / sxx
	b = my - a*mx
	if syy == 0 {
		r2 = 1
	} else {
		r2 = sxy * sxy / (sxx * syy)
	}
	return a, b, r2, nil
}

// Jitter summarizes the latency variability of a series the way the paper's
// Section 7 does: the relative gap between worst case and average case,
// expressed as a fraction ((max-mean)/mean).
type Jitter struct {
	Mean       float64 // average latency
	Max        float64 // worst case
	WorstVsAvg float64 // (Max - Mean) / Mean; paper: 85% straightforward vs 20% semi-auto
}

// JitterOf computes the Jitter summary of xs.
func JitterOf(xs []float64) (Jitter, error) {
	if len(xs) == 0 {
		return Jitter{}, ErrEmpty
	}
	j := Jitter{Mean: Mean(xs), Max: Max(xs)}
	if j.Mean != 0 {
		j.WorstVsAvg = (j.Max - j.Mean) / j.Mean
	}
	return j, nil
}

// MeanAbsPercentError returns the mean absolute percentage error between
// predicted and actual series, as a fraction (0.03 == 3%). The paper's "97%
// average prediction accuracy" corresponds to 1 - MAPE = 0.97. Zero actual
// values are skipped to keep the metric defined.
func MeanAbsPercentError(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, errors.New("stats: length mismatch")
	}
	if len(actual) == 0 {
		return 0, ErrEmpty
	}
	sum, n := 0.0, 0
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		sum += math.Abs(predicted[i]-actual[i]) / math.Abs(actual[i])
		n++
	}
	if n == 0 {
		return 0, errors.New("stats: all actual values zero")
	}
	return sum / float64(n), nil
}

// MaxAbsPercentError returns the largest single-sample absolute percentage
// error (the paper's "sporadic excursions of the prediction error up to
// 20-30%").
func MaxAbsPercentError(predicted, actual []float64) (float64, error) {
	if len(predicted) != len(actual) {
		return 0, errors.New("stats: length mismatch")
	}
	worst := 0.0
	seen := false
	for i := range actual {
		if actual[i] == 0 {
			continue
		}
		e := math.Abs(predicted[i]-actual[i]) / math.Abs(actual[i])
		if e > worst {
			worst = e
		}
		seen = true
	}
	if !seen {
		return 0, ErrEmpty
	}
	return worst, nil
}
