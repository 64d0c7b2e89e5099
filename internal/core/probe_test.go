package core

import (
	"triplec/internal/ewma"
	"triplec/internal/flowgraph"
)

// Accessors only tests use.

// Growth exposes the fitted Eq. 3 coefficients.
func (m *LinearMarkovModel) Growth() ewma.LinearGrowth { return m.growth }

// Successors is AppendSuccessors into a fresh slice.
func (t *ScenarioTable) Successors(from flowgraph.Scenario, minP float64) []flowgraph.Scenario {
	return t.AppendSuccessors(make([]flowgraph.Scenario, 0, 8), from, minP)
}
