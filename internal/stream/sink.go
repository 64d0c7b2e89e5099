package stream

import "triplec/internal/flowgraph"

// The runner is its predictor's one metrics sink. The samples fire inside
// Manager.Observe on the serving goroutine, after Process returned but
// before the frame commits — exactly the window in which prediction data
// exists and the frame is still open — and go to every consumer from here:
// the telemetry accountant, the open span frame, and the SLO cause ledger's
// staged scenario miss. Telemetry and the frame builder are nil-safe, so
// there is no order in which consumers must be installed.

// attachObservers wires the runner's current engine+manager pair to the
// configured observers. Called at stream start and again after every
// supervisor rebuild. A bare server has no consumer, and its predictor keeps
// no sink — it then skips remembering each forecast for scoring.
func (r *runner) attachObservers() {
	r.attachSpans()
	if r.tel != nil || r.cfg.Flight != nil || r.cfg.SLO != nil {
		r.mgr.Predictor().SetMetricsSink(r)
	}
}

// TaskSample implements core.MetricsSink: one task's predicted-vs-actual
// computation time lands in the accountant and on the staged task span.
func (r *runner) TaskSample(ti int, predictedMs, actualMs float64) {
	r.tel.taskSample(ti, predictedMs, actualMs)
	r.fb.SetPredicted(ti, predictedMs)
}

// ScenarioSample implements core.MetricsSink: the state table's scenario
// forecast against the scenario that executed. A mismatch also stages a miss
// instant on the span frame and the scenario-miss cause for the SLO ledger,
// consumed (and cleared) when this frame commits through observeSLO.
func (r *runner) ScenarioSample(predicted, actual flowgraph.Scenario) {
	r.tel.scenarioSample(predicted, actual)
	if predicted != actual {
		r.fb.ScenarioMiss(predicted.Index(), actual.Index())
		r.pendingScenMiss = true
	}
}
