package core

import (
	"triplec/internal/flowgraph"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// This file defines the pluggable prediction-backend seam used by the live
// shadow bake-off (internal/shadow): a Backend observes each executed
// frame and forecasts the next one, exactly like the deployed Predictor,
// but through dense allocation-free types so any number of backends can be
// raced on the serving frame path without heap traffic. The deployed
// EWMA+Markov predictor implements the interface via BaselineBackend; the
// alternatives (order-2 Markov, online ridge regression, tail quantiles)
// live in internal/shadow.

// BackendBaseline names the deployed EWMA+Markov predictor in scoreboard
// rankings, /healthz and flight-recorder dump metadata.
const BackendBaseline = "ewma+markov"

// FrameObs is the dense, allocation-free per-frame observation fed to
// shadow backends — the map-free mirror of Observation. TaskMs is indexed
// by tasks.IndexOf; Mask bit i is set when task i executed this frame.
// TotalMs is the serial-equivalent total (the sum of the per-task times),
// which is mapping-independent — scoring against the parallel frame
// latency would conflate prediction error with scheduling luck.
type FrameObs struct {
	Scenario       flowgraph.Scenario
	AnalysisPixels int
	EstROIPixels   int
	FramePixels    int
	TaskMs         [tasks.NumNames]float64
	Mask           uint16
	TotalMs        float64
}

// FramePrediction is one backend's dense next-frame forecast: the scenario
// it expects and per-task times for that scenario's active set (Mask bit i
// set when TaskMs[i] is a real prediction).
type FramePrediction struct {
	Scenario flowgraph.Scenario
	TaskMs   [tasks.NumNames]float64
	Mask     uint16
	TotalMs  float64
}

// Backend is a pluggable next-frame resource predictor raced in shadow
// mode. Implementations follow the Predictor's single-goroutine contract
// and must not allocate in Observe or Predict once constructed — the
// shadow scoreboard pins the whole observe-score-repredict cycle at zero
// allocations per frame.
type Backend interface {
	// Name identifies the backend in scoreboards, metrics labels and
	// reports. It must be stable and unique within a raced set.
	Name() string
	// Observe feeds the frame just executed.
	Observe(obs *FrameObs)
	// Predict writes the forecast for the next frame into *dst.
	Predict(dst *FramePrediction)
	// Reset clears per-sequence online state while keeping trained
	// parameters (the Model.ResetOnline contract).
	Reset()
}

// Dense converts the map-backed observation into its dense form.
func (o *Observation) Dense(dst *FrameObs) {
	*dst = FrameObs{
		Scenario:       o.Scenario,
		AnalysisPixels: o.AnalysisPixels,
		EstROIPixels:   o.EstROIPixels,
		FramePixels:    o.FramePixels,
	}
	for task, ms := range o.TaskMs {
		ti := tasks.IndexOf(task)
		if ti < 0 {
			continue
		}
		dst.TaskMs[ti] = ms
		dst.Mask |= 1 << uint(ti)
	}
	// Sum in dense index order, not map order: float addition is not
	// associative at the ulp level and the reports must be byte-stable.
	for ti := 0; ti < tasks.NumNames; ti++ {
		if dst.Mask&(1<<uint(ti)) != 0 {
			dst.TotalMs += dst.TaskMs[ti]
		}
	}
}

// DenseFromReport fills dst from a pipeline report without allocating —
// the serving loop's entry into the shadow scoreboard.
func DenseFromReport(rep *pipeline.Report, framePixels int, dst *FrameObs) {
	*dst = FrameObs{
		Scenario:       rep.Scenario,
		AnalysisPixels: rep.AnalysisPixels,
		EstROIPixels:   rep.ROI.Area(),
		FramePixels:    framePixels,
	}
	for _, e := range rep.Execs {
		ti := tasks.IndexOf(e.Task)
		if ti < 0 {
			continue
		}
		dst.TaskMs[ti] = e.Ms
		dst.Mask |= 1 << uint(ti)
		dst.TotalMs += e.Ms
	}
}

// ScenarioTaskLists precomputes each scenario's active task set as dense
// indices plus the matching mask, so backends can iterate a forecast's
// task set without the per-call slice ActiveTasks allocates.
type ScenarioTaskLists struct {
	Lists [8][]int
	Masks [8]uint16
}

// NewScenarioTaskLists builds the fixed scenario → active-task tables.
func NewScenarioTaskLists() *ScenarioTaskLists {
	l := &ScenarioTaskLists{}
	for i := 0; i < 8; i++ {
		for _, task := range flowgraph.FromIndex(i).ActiveTasks() {
			ti := tasks.IndexOf(task)
			if ti < 0 {
				continue
			}
			l.Lists[i] = append(l.Lists[i], ti)
			l.Masks[i] |= 1 << uint(ti)
		}
	}
	return l
}

// scenarioTasks is the package's own read-only copy of the tables.
var scenarioTasks = NewScenarioTaskLists()

// TaskMask returns the scenario's active task set as a mask over
// tasks.AllNames indices.
func TaskMask(s flowgraph.Scenario) uint16 { return scenarioTasks.Masks[s.Index()] }

// BaselineBackend adapts a Predictor to the Backend interface: the dense
// observe and forecast cores the predictor's own map-based methods are built
// on. Wrap a *clone* of the deployed predictor (Predictor.Clone): the
// backend owns its online state, so shadow evaluation never perturbs — and
// is never perturbed by — the instance steering the scheduler.
type BaselineBackend struct {
	p *Predictor
}

// NewBaselineBackend wraps a trained predictor.
func NewBaselineBackend(p *Predictor) *BaselineBackend { return &BaselineBackend{p: p} }

// Name implements Backend.
func (b *BaselineBackend) Name() string { return BackendBaseline }

// Observe implements Backend: every executed task's model learns from the
// actual time at the region size the frame actually processed.
func (b *BaselineBackend) Observe(obs *FrameObs) { b.p.ObserveFrame(obs) }

// Predict implements Backend: the state table's most likely successor,
// constrained by the ROI physics (the next frame processes an ROI exactly
// when this frame estimated one), then one model prediction per active task.
func (b *BaselineBackend) Predict(dst *FramePrediction) { b.p.PredictNextInto(dst) }

// Reset implements Backend.
func (b *BaselineBackend) Reset() { b.p.ResetOnline() }
