package shadow

import (
	"fmt"

	"triplec/internal/core"
)

// BackendMiscal names the deliberately miscalibrated challenger used by
// forced-rollback drills (`triplec promote -challenger miscal`, the chaos
// harness, CI): a wrapper that trains like its inner backend but scales
// every forecast by a constant factor, so a promotion is guaranteed to
// breach the signed-bias and accuracy guardrails — and, when steered,
// under-provisions the plan into real deadline misses.
const BackendMiscal = "miscalibrated"

// Miscalibrated wraps a backend and scales its forecasts.
type Miscalibrated struct {
	inner core.Backend
	scale float64
}

// NewMiscalibrated builds the drill challenger. A scale of 0.25 forecasts
// a quarter of the true demand: signed bias ≈ −0.75, within-25% accuracy
// ≈ 0, and steered plans sized for a quarter of the work.
func NewMiscalibrated(inner core.Backend, scale float64) *Miscalibrated {
	return &Miscalibrated{inner: inner, scale: scale}
}

// Name implements core.Backend.
func (m *Miscalibrated) Name() string { return BackendMiscal }

// Observe implements core.Backend.
func (m *Miscalibrated) Observe(obs *core.Observation) { m.inner.Observe(obs) }

// Predict implements core.Backend.
func (m *Miscalibrated) Predict(dst *core.Prediction) {
	m.inner.Predict(dst)
	for ti := range dst.Ms {
		if dst.Mask&(uint16(1)<<uint(ti)) != 0 {
			dst.Ms[ti] *= m.scale
		}
	}
	dst.TotalMs *= m.scale
}

// Reset implements core.Backend.
func (m *Miscalibrated) Reset() { m.inner.Reset() }

// miscalScale is the drill challenger's forecast scale: plans sized for a
// quarter of the true demand.
const miscalScale = 0.25

// NewStreamBoard builds one served stream's bake-off board: the full roster
// trained on the corpus the deployed predictor was trained on, plus — for
// the forced-rollback drills — the miscalibrated challenger wrapped around a
// second clone of the deployed predictor.
func NewStreamBoard(stream string, deployed *core.Predictor, corpus [][]core.Observation, miscal bool) (*Board, error) {
	backends, err := TrainBackends(deployed, corpus, core.TrainConfig{})
	if err != nil {
		return nil, err
	}
	if miscal {
		clone, err := deployed.Clone()
		if err != nil {
			return nil, fmt.Errorf("shadow: clone deployed predictor: %w", err)
		}
		backends = append(backends, NewMiscalibrated(core.NewBaselineBackend(clone), miscalScale))
	}
	return NewBoard(stream, backends)
}
