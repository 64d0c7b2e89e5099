// Package core assembles the Triple-C predictor: per-task computation-time
// models following the paper's Table 2(b) (EWMA + Markov for the
// data-dependent tasks, a linear ROI growth function for RDG ROI, constants
// for the deterministic tasks), a state table for the data-dependent flow
// graph switches, and pass-throughs to the cache-memory and
// communication-bandwidth analyses — the three C's. The EWMA filter
// (ewma.go), the quantized residual chains (markov.go) and the one Eq. 2
// transition table the chains and the state tables count in
// (transitions.go) live here too.
package core

import (
	"errors"
	"fmt"

	"triplec/internal/stats"
)

// Context carries the per-frame inputs a model may depend on.
type Context struct {
	// ROIPixels is the size of the analysis region the task will process
	// (the full frame at full granularity).
	ROIPixels int
}

// Model predicts the next execution time of one task and learns from the
// observed value. Implementations keep online state (filter values, current
// Markov state) separate from trained parameters so they can be reset
// between sequences.
type Model interface {
	// Predict estimates the next execution time in milliseconds.
	Predict(ctx Context) float64
	// Observe feeds the actual time of the execution just performed.
	Observe(ctx Context, actualMs float64)
	// ResetOnline clears the online state while keeping trained parameters.
	ResetOnline()
	// Describe names the model the way Table 2(b) does.
	Describe() string
}

// ConstantModel predicts a fixed value — the paper models MKX EXT (2.5 ms),
// REG (2 ms), ROI EST (1 ms), ENH (24 ms) and ZOOM (12.5 ms) this way.
type ConstantModel struct {
	Ms float64
}

// NewConstantModel fits the constant as the mean of the training samples.
func NewConstantModel(samples []float64) (*ConstantModel, error) {
	if len(samples) == 0 {
		return nil, errors.New("core: constant model needs samples")
	}
	return &ConstantModel{Ms: stats.Mean(samples)}, nil
}

// Predict returns the constant.
func (m *ConstantModel) Predict(Context) float64 { return m.Ms }

// Observe is a no-op: the paper treats these tasks as deterministic.
func (m *ConstantModel) Observe(Context, float64) {}

// ResetOnline is a no-op.
func (m *ConstantModel) ResetOnline() {}

// Describe returns the Table 2(b) entry.
func (m *ConstantModel) Describe() string { return fmt.Sprintf("%.4g", m.Ms) }

// EWMAMarkovModel is the paper's composite model: an EWMA filter (Eq. 1)
// tracks the long-term structural level and a Markov chain over the
// quantized residuals predicts the short-term fluctuation on top.
type EWMAMarkovModel struct {
	filter *Filter
	chain  *Chain
	name   string // chain label for Describe ("RDG", "CPLS", "GW")

	lastResidual float64
	seen         bool
	fallback     float64 // trained mean, used before the filter is primed
	// OnlineTraining adds observed transitions to the chain (the paper's
	// profiling step feeds statistics back for on-line model training).
	OnlineTraining bool
}

// NewEWMAMarkovModel trains the composite model from per-sequence series.
func NewEWMAMarkovModel(series [][]float64, alpha float64, maxStates int, name string) (*EWMAMarkovModel, error) {
	residualSets, all, err := DecomposeSeries(series, alpha)
	if err != nil {
		return nil, err
	}
	if len(all) < 2 {
		return nil, errors.New("core: insufficient training data for EWMA+Markov model")
	}
	chain, err := TrainChain(residualSets, maxStates)
	if err != nil {
		return nil, err
	}
	filter, err := NewFilter(alpha)
	if err != nil {
		return nil, err
	}
	return &EWMAMarkovModel{
		filter:   filter,
		chain:    chain,
		name:     name,
		fallback: stats.Mean(all),
	}, nil
}

// Chain exposes the trained Markov chain (Table 2a rendering, ablations).
func (m *EWMAMarkovModel) Chain() *Chain { return m.chain }

// Predict returns filter level plus expected residual transition.
func (m *EWMAMarkovModel) Predict(Context) float64 {
	if !m.filter.Primed() {
		return m.fallback
	}
	pred := m.filter.Value()
	if m.seen {
		pred += m.chain.ExpectedNext(m.lastResidual)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// Observe updates the filter and the residual state.
func (m *EWMAMarkovModel) Observe(_ Context, actualMs float64) {
	prevResidual := m.lastResidual
	lpf := m.filter.Update(actualMs)
	r := actualMs - lpf
	if m.OnlineTraining && m.seen {
		m.chain.AddTransition(prevResidual, r)
	}
	m.lastResidual = r
	m.seen = true
}

// ResetOnline clears the filter and residual state.
func (m *EWMAMarkovModel) ResetOnline() {
	m.filter.Reset()
	m.lastResidual = 0
	m.seen = false
}

// Describe returns the Table 2(b) entry.
func (m *EWMAMarkovModel) Describe() string {
	return fmt.Sprintf("<Eq. 1> + Markov %s", m.name)
}

// HoltMarkovModel is the trend-tracking variant of EWMAMarkovModel: a Holt
// double-exponential filter carries the long-term part, so the model keeps
// up with steadily drifting load where the plain EWMA lags by a constant
// offset. Not used by the paper (its Table 2b pairs Eq. 1 with the chains);
// provided for the trend-filter ablation.
type HoltMarkovModel struct {
	filter *Holt
	chain  *Chain
	name   string

	lastResidual float64
	seen         bool
	fallback     float64
}

// NewHoltMarkovModel trains the Holt+Markov composite from per-sequence
// series, decomposing each against a Holt filter instead of the EWMA.
func NewHoltMarkovModel(series [][]float64, alpha, beta float64, maxStates int, name string) (*HoltMarkovModel, error) {
	var residualSets [][]float64
	var all []float64
	for _, s := range series {
		if len(s) == 0 {
			continue
		}
		h, err := NewHolt(alpha, beta)
		if err != nil {
			return nil, err
		}
		res := make([]float64, len(s))
		for i, x := range s {
			res[i] = x - h.Update(x)
		}
		residualSets = append(residualSets, res)
		all = append(all, s...)
	}
	if len(all) < 2 {
		return nil, errors.New("core: insufficient training data for Holt+Markov model")
	}
	chain, err := TrainChain(residualSets, maxStates)
	if err != nil {
		return nil, err
	}
	filter, err := NewHolt(alpha, beta)
	if err != nil {
		return nil, err
	}
	return &HoltMarkovModel{
		filter:   filter,
		chain:    chain,
		name:     name,
		fallback: stats.Mean(all),
	}, nil
}

// Predict returns the one-step Holt forecast plus the expected residual.
func (m *HoltMarkovModel) Predict(Context) float64 {
	if !m.filter.Primed() {
		return m.fallback
	}
	pred := m.filter.Forecast(1)
	if m.seen {
		pred += m.chain.ExpectedNext(m.lastResidual)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// Observe updates the filter and the residual state.
func (m *HoltMarkovModel) Observe(_ Context, actualMs float64) {
	level := m.filter.Update(actualMs)
	m.lastResidual = actualMs - level
	m.seen = true
}

// ResetOnline clears the filter and residual state.
func (m *HoltMarkovModel) ResetOnline() {
	m.filter.Reset()
	m.lastResidual = 0
	m.seen = false
}

// Describe names the variant.
func (m *HoltMarkovModel) Describe() string {
	return fmt.Sprintf("Holt + Markov %s", m.name)
}

// LinearMarkovModel models RDG ROI: the linear ROI growth function (Eq. 3)
// plus the shared RDG Markov chain over the detrended residuals.
type LinearMarkovModel struct {
	growth LinearGrowth
	chain  *Chain
	name   string

	lastResidual float64
	seen         bool
	// OnlineTraining adds observed transitions to the chain.
	OnlineTraining bool
}

// NewLinearMarkovModel builds the model from a fitted growth function and a
// trained (shared) chain.
func NewLinearMarkovModel(growth LinearGrowth, chain *Chain, name string) (*LinearMarkovModel, error) {
	if chain == nil {
		return nil, errors.New("core: linear model needs a chain")
	}
	return &LinearMarkovModel{growth: growth, chain: chain, name: name}, nil
}

// Predict evaluates the growth function at the context's ROI size plus the
// expected residual transition.
func (m *LinearMarkovModel) Predict(ctx Context) float64 {
	pred := m.growth.Predict(float64(ctx.ROIPixels))
	if m.seen {
		pred += m.chain.ExpectedNext(m.lastResidual)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

// Observe updates the residual state against the growth trend.
func (m *LinearMarkovModel) Observe(ctx Context, actualMs float64) {
	prev := m.lastResidual
	r := actualMs - m.growth.Predict(float64(ctx.ROIPixels))
	if m.OnlineTraining && m.seen {
		m.chain.AddTransition(prev, r)
	}
	m.lastResidual = r
	m.seen = true
}

// ResetOnline clears the residual state.
func (m *LinearMarkovModel) ResetOnline() {
	m.lastResidual = 0
	m.seen = false
}

// Describe returns the Table 2(b) entry.
func (m *LinearMarkovModel) Describe() string {
	return fmt.Sprintf("<Eq. 3> + Markov %s", m.name)
}
