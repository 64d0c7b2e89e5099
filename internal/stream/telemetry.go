package stream

import (
	"fmt"
	"sync/atomic"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/metrics"
	"triplec/internal/pipeline"
	"triplec/internal/sched"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// telemetry is one stream's live-instrumentation glue: it owns the stream's
// prediction-error accountant, accounts the predictor's per-frame error
// samples (forwarded by the runner, the predictor's one sink — see
// sink.go) and every frame's outcome record, and tracks the stream
// goroutine's liveness for /healthz. All event methods
// are nil-safe so the serving loop carries no telemetry-enabled branches,
// and the record path is pure atomics — no allocation, map lookups or fmt
// per frame (the per-scenario resource forecasts are precomputed tables).
type telemetry struct {
	acct *metrics.Accountant

	// Extra plan-level instruments not covered by the accountant.
	planPredictedMs *metrics.Gauge
	planSerialMs    *metrics.Gauge
	plans           *metrics.Counter

	// Robustness instruments (restart supervisor, watchdog, fault boundary,
	// degradation ladder).
	restarts        *metrics.Counter
	quarantines     *metrics.Counter
	failedFrames    *metrics.Counter
	abandonedFrames *metrics.Counter
	taskPanics      *metrics.Counter
	degradations    *metrics.Counter
	qualityLevel    *metrics.Gauge

	// Per-scenario resource forecasts at the stream's modeled geometry,
	// indexed by flowgraph.Scenario.Index(): the predicted-vs-actual
	// scenario pair maps to a bandwidth and cache-occupation model error
	// with two table reads instead of re-running the analysis per frame.
	bwMBs   [8]float64
	cacheKB [8]float64

	state  atomic.Int32 // streamIdle | streamServing | streamDone | streamFailed
	errMsg atomic.Value // string; last serve error

	// Rolling 64-frame windows for /healthz, written only by the serving
	// goroutine: scenario forecasts (true = hit, inside scenarioSample) and
	// processed frames' deadline outcomes (true = miss, inside commit) —
	// the recency counterpart to the lifetime Accountant rates, so /healthz
	// shows a shift (a promotion gone wrong, a scene change) while the
	// cumulative rate still averages it away.
	scenarioWin stats.BitWindow
	missWin     stats.BitWindow
}

const (
	streamIdle = int32(iota)
	streamServing
	streamDone
	streamFailed
	streamQuarantined
)

// streamLabel names stream i for instruments and health reports.
func streamLabel(sc Config, i int) string {
	if sc.Name != "" {
		return sc.Name
	}
	return fmt.Sprintf("stream%d", i)
}

// newTelemetry registers stream i's instruments on the registry and wires
// the manager's plan-level hot path to them.
func newTelemetry(reg *metrics.Registry, sc Config, i int) (*telemetry, error) {
	name := streamLabel(sc, i)
	taskNames := make([]string, tasks.NumNames)
	for ti, tn := range tasks.AllNames() {
		taskNames[ti] = string(tn)
	}
	acct, err := metrics.NewAccountant(reg, metrics.AccountantConfig{Stream: name, Tasks: taskNames})
	if err != nil {
		return nil, fmt.Errorf("stream: %s: %w", name, err)
	}
	t := &telemetry{acct: acct}
	sl := metrics.L("stream", name)
	if t.planPredictedMs, err = reg.NewGauge("triplec_plan_predicted_ms",
		"Predicted latency of the mapping chosen by the last Plan.", sl); err != nil {
		return nil, err
	}
	if t.planSerialMs, err = reg.NewGauge("triplec_plan_serial_ms",
		"Predicted latency of the serial mapping at the last Plan.", sl); err != nil {
		return nil, err
	}
	if t.plans, err = reg.NewCounter("triplec_plans_total",
		"Runtime-manager planning decisions taken.", sl); err != nil {
		return nil, err
	}
	if t.restarts, err = reg.NewCounter("triplec_stream_restarts_total",
		"Supervisor restarts of the stream's serving loop.", sl); err != nil {
		return nil, err
	}
	if t.quarantines, err = reg.NewCounter("triplec_stream_quarantines_total",
		"Streams retired after exhausting their restart policy.", sl); err != nil {
		return nil, err
	}
	if t.failedFrames, err = reg.NewCounter("triplec_frames_failed_total",
		"Frames lost to a recovered task panic or serving-loop crash.", sl); err != nil {
		return nil, err
	}
	if t.abandonedFrames, err = reg.NewCounter("triplec_frames_abandoned_total",
		"Frames given up past the wall-clock watchdog deadline.", sl); err != nil {
		return nil, err
	}
	if t.taskPanics, err = reg.NewCounter("triplec_task_panics_total",
		"Task panics recovered by the pipeline fault boundary.", sl); err != nil {
		return nil, err
	}
	if t.degradations, err = reg.NewCounter("triplec_quality_degradations_total",
		"Degradation-ladder transitions, in either direction.", sl); err != nil {
		return nil, err
	}
	if t.qualityLevel, err = reg.NewGauge("triplec_quality_level",
		"Current degradation rung (0 = full quality, 4 = serial fallback).", sl); err != nil {
		return nil, err
	}

	// Precompute the per-scenario bandwidth and cache-occupation forecasts
	// at the engine's modeled geometry: the paper's frame at 30 Hz.
	cacheKB := sc.Engine.Config().Arch.L2.SizeBytes / 1024
	for si := 0; si < 8; si++ {
		s := flowgraph.FromIndex(si)
		an, err := flowgraph.Analyze(s, flowgraph.PaperFrameKB, cacheKB, 30)
		if err != nil {
			return nil, fmt.Errorf("stream: %s: scenario %s bandwidth table: %w", name, s, err)
		}
		t.bwMBs[si] = an.TotalMBs()
		occ := 0
		for _, task := range s.ActiveTasks() {
			req, err := flowgraph.Lookup(task, s.RDGOn, flowgraph.PaperFrameKB)
			if err != nil {
				return nil, fmt.Errorf("stream: %s: scenario %s cache table: %w", name, s, err)
			}
			occ += req.TotalKB()
		}
		t.cacheKB[si] = float64(occ)
	}

	sc.Manager.Metrics = &sched.ManagerMetrics{
		BudgetMs:     acct.BudgetMs,
		PredictedMs:  t.planPredictedMs,
		SerialMs:     t.planSerialMs,
		CoreBudget:   acct.CoreBudget,
		Repartitions: acct.Repartitions,
		Plans:        t.plans,
	}
	if sc.BudgetMs > 0 {
		acct.BudgetMs.Set(sc.BudgetMs)
	}
	return t, nil
}

// Serving-loop events, nil-safe so the runner needs no telemetry branches.

// taskSample accounts the predicted-vs-actual computation time of the task
// at dense index ti.
func (t *telemetry) taskSample(ti int, predictedMs, actualMs float64) {
	if t == nil {
		return
	}
	t.acct.ObservePrediction(ti, predictedMs, actualMs)
}

// scenarioSample accounts the Markov state table's next-scenario forecast
// against the scenario that executed, plus the bandwidth and
// cache-occupation model error the misprediction implies (zero on a hit —
// the error histograms stay centered when the table is accurate).
func (t *telemetry) scenarioSample(predicted, actual flowgraph.Scenario) {
	if t == nil {
		return
	}
	t.acct.ObserveScenario(predicted == actual)
	t.scenarioWin.Push(predicted == actual)
	pi, ai := predicted.Index(), actual.Index()
	t.acct.ObserveResourceErr(
		metrics.RelErr(t.bwMBs[pi], t.bwMBs[ai]),
		metrics.RelErr(t.cacheKB[pi], t.cacheKB[ai]),
	)
}

func (t *telemetry) serving() {
	if t == nil {
		return
	}
	t.state.Store(streamServing)
}

func (t *telemetry) finished(err error) {
	if t == nil {
		return
	}
	if err != nil {
		t.errMsg.Store(err.Error())
		t.state.Store(streamFailed)
		return
	}
	t.state.Store(streamDone)
}

func (t *telemetry) offered(frame int) {
	if t == nil {
		return
	}
	t.acct.Offered.Inc()
	t.acct.LastFrame.Set(float64(frame))
}

// commit accounts one resolved frame (see runner.commit). A processed
// frame's latency and per-task times come from its record and its dense
// observation, so a frame the watchdog abandoned never reaches the latency
// histograms.
func (t *telemetry) commit(o *outcome, obs *core.Observation) {
	if t == nil {
		return
	}
	a := t.acct
	if o.serial {
		a.SerialFallbacks.Inc()
	}
	switch o.kind {
	case outSkipped:
		a.Skipped.Inc()
	case outFailed:
		t.failedFrames.Inc()
		if o.panicked {
			t.taskPanics.Inc()
		}
	case outAbandoned:
		t.abandonedFrames.Inc()
	case outProcessed:
		a.Processed.Inc()
		a.LastLatencyMs.Set(o.latencyMs)
		a.FrameLatencyMs.Observe(o.latencyMs)
		for ti, ms := range obs.Ms {
			if obs.Mask&(1<<ti) != 0 {
				a.ObserveTask(ti, ms)
			}
		}
		if o.missed {
			a.DeadlineMisses.Inc()
		}
		t.missWin.Push(o.missed)
		if o.acctErr {
			a.AccountingErrs.Inc()
		}
	}
}

func (t *telemetry) demand(predictedMs float64) {
	if t == nil {
		return
	}
	t.acct.PredictedDemandMs.Set(predictedMs)
}

func (t *telemetry) restarted() {
	if t == nil {
		return
	}
	t.restarts.Inc()
}

func (t *telemetry) quarantined(err error) {
	if t == nil {
		return
	}
	if err != nil {
		t.errMsg.Store(err.Error())
	}
	t.quarantines.Inc()
	t.state.Store(streamQuarantined)
}

func (t *telemetry) qualityChanged(q pipeline.Quality) {
	if t == nil {
		return
	}
	t.degradations.Inc()
	t.qualityLevel.Set(float64(q))
}
