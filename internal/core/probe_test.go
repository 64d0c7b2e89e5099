package core

import (
	"triplec/internal/flowgraph"
)

// Accessors only tests use.

// Growth exposes the fitted Eq. 3 coefficients.
func (m *LinearMarkovModel) Growth() LinearGrowth { return m.growth }

// Successors is AppendSuccessors into a fresh slice.
func (t *ScenarioTable) Successors(from flowgraph.Scenario, minP float64) []flowgraph.Scenario {
	return t.AppendSuccessors(make([]flowgraph.Scenario, 0, 8), from, minP)
}

// Representative returns the value representing state s.
func (q *Quantizer) Representative(s int) float64 {
	if s < 0 {
		s = 0
	}
	if s >= len(q.rep) {
		s = len(q.rep) - 1
	}
	return q.rep[s]
}
