package bandwidth

import "triplec/internal/flowgraph"

// AnalyzeAll returns the Analysis of all eight scenarios.
func AnalyzeAll(frameKB, cacheKB int, rate float64) ([]Analysis, error) {
	var out []Analysis
	for _, s := range flowgraph.AllScenarios() {
		a, err := Analyze(s, frameKB, cacheKB, rate)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
