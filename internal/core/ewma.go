package core

// The long-term part of Triple-C's computation-time model (paper Section
// 4): the Exponentially Weighted Moving Average filter of Eq. 1,
//
//	y(tk) = (1 - alpha) * y(tk-1) + alpha * x(tk),
//
// used to separate the low-frequency structural fluctuations of a task's
// processing time from the high-frequency short-term fluctuations that the
// Markov chain models, plus the linear growth function of Eq. 3 describing
// the dependency of the ridge-detection time on the ROI size.

import (
	"errors"

	"triplec/internal/stats"
)

// Filter is the EWMA (first-order IIR) low-pass filter of Eq. 1. The zero
// value is not usable; construct with NewFilter.
type Filter struct {
	alpha  float64
	y      float64
	primed bool
}

// NewFilter returns a filter with the given smoothing factor alpha in
// (0, 1]. Larger alpha weights recent inputs more heavily (the paper picks
// the EWMA over FIR filters precisely for this fast adaptation).
func NewFilter(alpha float64) (*Filter, error) {
	if alpha <= 0 || alpha > 1 {
		return nil, errors.New("core: alpha must be in (0, 1]")
	}
	return &Filter{alpha: alpha}, nil
}

// Alpha returns the smoothing factor.
func (f *Filter) Alpha() float64 { return f.alpha }

// Update feeds one sample and returns the new filter output. The first
// sample primes the filter (y = x).
func (f *Filter) Update(x float64) float64 {
	if !f.primed {
		f.y = x
		f.primed = true
		return f.y
	}
	f.y = (1-f.alpha)*f.y + f.alpha*x
	return f.y
}

// Value returns the current filter output (0 before the first Update).
func (f *Filter) Value() float64 { return f.y }

// Primed reports whether the filter has seen at least one sample.
func (f *Filter) Primed() bool { return f.primed }

// Reset clears the filter state.
func (f *Filter) Reset() {
	f.y = 0
	f.primed = false
}

// Decompose splits a series into its low-frequency (EWMA output) and
// high-frequency (residual) parts — the LPF and HPF curves of the paper's
// Fig. 3. len(lpf) == len(hpf) == len(xs).
func Decompose(xs []float64, alpha float64) (lpf, hpf []float64, err error) {
	f, err := NewFilter(alpha)
	if err != nil {
		return nil, nil, err
	}
	lpf = make([]float64, len(xs))
	hpf = make([]float64, len(xs))
	for i, x := range xs {
		lpf[i] = f.Update(x)
		hpf[i] = x - lpf[i]
	}
	return lpf, hpf, nil
}

// DecomposeSeries decomposes each non-empty series and returns the
// residual (HPF) series in order, with every sample pooled.
func DecomposeSeries(series [][]float64, alpha float64) (residuals [][]float64, all []float64, err error) {
	for _, s := range series {
		if len(s) == 0 {
			continue
		}
		_, hpf, err := Decompose(s, alpha)
		if err != nil {
			return nil, nil, err
		}
		residuals = append(residuals, hpf)
		all = append(all, s...)
	}
	return residuals, all, nil
}

// Holt is double-exponential (Holt) smoothing: a level filter plus a trend
// filter, so forecasts follow a drifting series instead of lagging it the
// way a plain EWMA does. Kept as the alternative the paper's Eq. 1 choice
// can be ablated against on strongly trending load.
type Holt struct {
	alpha, beta  float64
	level, trend float64
	primed       bool
}

// NewHolt returns a Holt filter with level factor alpha and trend factor
// beta, both in (0, 1].
func NewHolt(alpha, beta float64) (*Holt, error) {
	if alpha <= 0 || alpha > 1 || beta <= 0 || beta > 1 {
		return nil, errors.New("core: Holt factors must be in (0, 1]")
	}
	return &Holt{alpha: alpha, beta: beta}, nil
}

// Update feeds one sample and returns the updated level.
func (h *Holt) Update(x float64) float64 {
	if !h.primed {
		h.level = x
		h.trend = 0
		h.primed = true
		return h.level
	}
	prevLevel := h.level
	h.level = h.alpha*x + (1-h.alpha)*(h.level+h.trend)
	h.trend = h.beta*(h.level-prevLevel) + (1-h.beta)*h.trend
	return h.level
}

// Forecast returns the k-step-ahead prediction level + k*trend.
func (h *Holt) Forecast(k int) float64 {
	return h.level + float64(k)*h.trend
}

// Primed reports whether the filter has seen a sample.
func (h *Holt) Primed() bool { return h.primed }

// Reset clears the filter state.
func (h *Holt) Reset() {
	h.level, h.trend = 0, 0
	h.primed = false
}

// LinearGrowth is the paper's Eq. 3: a linear model y = Slope*x + Intercept
// relating processing time to ROI size. The paper reports
// y = 0.067*t + 20.6 for the ridge-detection task.
type LinearGrowth struct {
	Slope, Intercept float64
	R2               float64 // goodness of the fit that produced the model
}

// FitLinearGrowth estimates the growth model from (x, y) observations by
// ordinary least squares.
func FitLinearGrowth(xs, ys []float64) (LinearGrowth, error) {
	a, b, r2, err := stats.LinearFit(xs, ys)
	if err != nil {
		return LinearGrowth{}, err
	}
	return LinearGrowth{Slope: a, Intercept: b, R2: r2}, nil
}

// Predict evaluates the model at x.
func (g LinearGrowth) Predict(x float64) float64 { return g.Slope*x + g.Intercept }

// Detrend subtracts the model from the observations, leaving the
// data-dependent fluctuations the paper feeds into the Markov
// state-generation process.
func (g LinearGrowth) Detrend(xs, ys []float64) ([]float64, error) {
	if len(xs) != len(ys) {
		return nil, errors.New("core: length mismatch")
	}
	out := make([]float64, len(ys))
	for i := range ys {
		out[i] = ys[i] - g.Predict(xs[i])
	}
	return out, nil
}
