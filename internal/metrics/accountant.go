package metrics

import (
	"errors"
	"fmt"
	"math"
)

// AccountantConfig configures a per-stream prediction-error accountant.
type AccountantConfig struct {
	// Stream is the stream label value attached to every instrument.
	Stream string
	// Tasks lists the task names the accountant tracks, in the dense index
	// order the caller will use with ObserveTask/ObservePrediction.
	Tasks []string
}

// Accountant is the per-stream prediction-error accountant: one
// preregistered instrument per quantity the paper's profiling step compares
// ("the differences between the actually consumed resources and the
// predicted values"), recordable from the frame path without allocation.
// All fields are plain instrument handles; every recording method is safe
// on a nil receiver so call sites need no telemetry-enabled branch.
type Accountant struct {
	// Admission and outcome counters.
	Offered, Processed, Skipped  *Counter
	SerialFallbacks              *Counter
	DeadlineMisses               *Counter
	AccountingErrs               *Counter
	Repartitions                 *Counter
	ScenarioHits, ScenarioMisses *Counter
	// Degenerate counts prediction samples dropped from the relative-error
	// distributions because the actual carried no scale (≈0) or either side
	// was NaN/Inf — recording them would poison the histogram sums.
	Degenerate *Counter

	// Live gauges: last-seen values for /healthz-style summaries.
	BudgetMs          *Gauge
	PredictedDemandMs *Gauge
	CoreBudget        *Gauge
	LastLatencyMs     *Gauge
	LastFrame         *Gauge

	// Distributions.
	FrameLatencyMs     *Histogram
	TaskMs             []*Histogram // actual per-task ms, by task index
	TaskRelErr         []*Histogram // signed (predicted-actual)/actual, by task index
	PredictionAbsErrMs *Histogram   // |predicted-actual| per task sample
	BandwidthRelErr    *Histogram   // signed relative bandwidth-model error
	CacheRelErr        *Histogram   // signed relative cache-occupation error
}

// NewAccountant registers one full per-stream instrument set on the
// registry. Registering two accountants with the same stream label on one
// registry is an error (duplicate instruments).
func NewAccountant(r *Registry, cfg AccountantConfig) (*Accountant, error) {
	if r == nil {
		return nil, errors.New("metrics: nil registry")
	}
	const ns = "triplec"
	latBuckets := DefaultLatencyBucketsMs()
	errBuckets := DefaultSignedErrorBuckets()
	sl := L("stream", cfg.Stream)
	a := &Accountant{}
	var err error
	counter := func(dst **Counter, name, help string) {
		if err == nil {
			*dst, err = r.NewCounter(ns+"_"+name, help, sl)
		}
	}
	gauge := func(dst **Gauge, name, help string) {
		if err == nil {
			*dst, err = r.NewGauge(ns+"_"+name, help, sl)
		}
	}
	counter(&a.Offered, "frames_offered_total", "Frames offered to the stream by its source.")
	counter(&a.Processed, "frames_processed_total", "Frames fully processed by the pipeline.")
	counter(&a.Skipped, "frames_skipped_total", "Frames shed by the controller (alternate-frame skipping).")
	counter(&a.SerialFallbacks, "serial_fallbacks_total", "Processed frames forced to the serial mapping under contention.")
	counter(&a.DeadlineMisses, "deadline_misses_total", "Processed frames whose latency exceeded the stream budget.")
	counter(&a.AccountingErrs, "accounting_errors_total", "Frames with incomplete bandwidth accounting.")
	counter(&a.Repartitions, "repartitions_total", "Frames where the runtime manager changed the mapping.")
	counter(&a.ScenarioHits, "scenario_predictions_hit_total", "Frames whose scenario the Markov state table predicted correctly.")
	counter(&a.ScenarioMisses, "scenario_predictions_miss_total", "Frames whose predicted scenario differed from the executed one.")
	counter(&a.Degenerate, "prediction_degenerate_samples_total", "Prediction samples dropped from the error distributions (actual ≈ 0 or non-finite values).")
	gauge(&a.BudgetMs, "budget_ms", "Current per-frame latency budget.")
	gauge(&a.PredictedDemandMs, "predicted_demand_ms", "Latest predicted serial demand reported to the core arbiter.")
	gauge(&a.CoreBudget, "core_budget", "Cores currently allocated to the stream by the arbiter.")
	gauge(&a.LastLatencyMs, "last_latency_ms", "Latency of the most recently processed frame.")
	gauge(&a.LastFrame, "last_frame_index", "Index of the most recently offered frame.")
	if err == nil {
		a.FrameLatencyMs, err = r.NewHistogram(ns+"_frame_latency_ms",
			"Per-frame processing latency.", latBuckets, sl)
	}
	if err == nil {
		a.PredictionAbsErrMs, err = r.NewHistogram(ns+"_prediction_abs_error_ms",
			"Absolute per-task prediction error |predicted-actual|.", latBuckets, sl)
	}
	if err == nil {
		a.BandwidthRelErr, err = r.NewHistogram(ns+"_bandwidth_model_rel_error",
			"Signed relative error of the predicted scenario's communication bandwidth.", errBuckets, sl)
	}
	if err == nil {
		a.CacheRelErr, err = r.NewHistogram(ns+"_cache_model_rel_error",
			"Signed relative error of the predicted scenario's cache occupation.", errBuckets, sl)
	}
	if err != nil {
		return nil, err
	}
	a.TaskMs = make([]*Histogram, len(cfg.Tasks))
	a.TaskRelErr = make([]*Histogram, len(cfg.Tasks))
	for i, task := range cfg.Tasks {
		tl := L("task", task)
		a.TaskMs[i], err = r.NewHistogram(ns+"_task_ms",
			"Actual per-task execution time.", latBuckets, sl, tl)
		if err != nil {
			return nil, err
		}
		a.TaskRelErr[i], err = r.NewHistogram(ns+"_task_prediction_rel_error",
			"Signed relative per-task prediction error (predicted-actual)/actual.", errBuckets, sl, tl)
		if err != nil {
			return nil, err
		}
	}
	return a, nil
}

// ObserveTask records one task's actual execution time. Indices outside the
// registered task set are dropped.
func (a *Accountant) ObserveTask(task int, actualMs float64) {
	if a == nil || task < 0 || task >= len(a.TaskMs) {
		return
	}
	a.TaskMs[task].Observe(actualMs)
}

// ObservePrediction records one task's predicted-vs-actual computation
// time: the signed relative error lands in the task's error histogram, the
// absolute error in the stream-wide PredictionAbsErrMs distribution.
// Degenerate samples — non-finite on either side, or an actual too close
// to zero to carry scale — are dropped from the distributions and counted
// in Degenerate instead, so a single bad frame can never turn a histogram
// sum into NaN/Inf.
func (a *Accountant) ObservePrediction(task int, predictedMs, actualMs float64) {
	if a == nil {
		return
	}
	rel, ok := SignedRelErr(predictedMs, actualMs)
	if !ok {
		a.Degenerate.Inc()
		return
	}
	a.PredictionAbsErrMs.Observe(math.Abs(predictedMs - actualMs))
	if task < 0 || task >= len(a.TaskRelErr) {
		return
	}
	a.TaskRelErr[task].Observe(rel)
}

// ObserveScenario records one Markov scenario-transition outcome.
func (a *Accountant) ObserveScenario(hit bool) {
	if a == nil {
		return
	}
	if hit {
		a.ScenarioHits.Inc()
	} else {
		a.ScenarioMisses.Inc()
	}
}

// ObserveResourceErr records the signed relative error of the bandwidth and
// cache-occupation models for one frame: RelErr(predicted, actual) of the
// two resource forecasts.
func (a *Accountant) ObserveResourceErr(bwRel, cacheRel float64) {
	if a == nil {
		return
	}
	a.BandwidthRelErr.Observe(bwRel)
	a.CacheRelErr.Observe(cacheRel)
}

// ScenarioHitRate returns the fraction of correctly predicted scenario
// transitions so far (0 before any sample).
func (a *Accountant) ScenarioHitRate() float64 {
	if a == nil {
		return 0
	}
	hits := a.ScenarioHits.Value()
	total := hits + a.ScenarioMisses.Value()
	if total == 0 {
		return 0
	}
	return float64(hits) / float64(total)
}

// MissRate returns the deadline-miss fraction over processed frames so far.
func (a *Accountant) MissRate() float64 {
	if a == nil {
		return 0
	}
	p := a.Processed.Value()
	if p == 0 {
		return 0
	}
	return float64(a.DeadlineMisses.Value()) / float64(p)
}

// RelErr returns the signed relative error (predicted-actual)/actual, or 0
// when the actual carries no scale (zero, NaN or infinite).
func RelErr(predicted, actual float64) float64 {
	if actual == 0 || math.IsNaN(actual) || math.IsInf(actual, 0) || math.IsNaN(predicted) || math.IsInf(predicted, 0) {
		return 0
	}
	return (predicted - actual) / actual
}

// MinActualMs is the scale floor below which an actual execution time is
// considered degenerate for relative-error accounting: dividing by an
// actual this close to zero yields errors in the 1e6+ range that swamp a
// histogram sum even though every individual value stays finite.
const MinActualMs = 1e-6

// SignedRelErr returns the signed relative error (predicted-actual)/actual
// and whether the sample is usable. It reports false — callers should drop
// the sample and count it as degenerate — when either side is NaN or
// infinite, or the actual is below MinActualMs.
func SignedRelErr(predicted, actual float64) (float64, bool) {
	if math.IsNaN(predicted) || math.IsInf(predicted, 0) ||
		math.IsNaN(actual) || math.IsInf(actual, 0) || actual < MinActualMs {
		return 0, false
	}
	return (predicted - actual) / actual, true
}

// String summarizes the accountant's live state (for examples and logs).
func (a *Accountant) String() string {
	if a == nil {
		return "accountant(nil)"
	}
	return fmt.Sprintf("accountant(processed=%d missed=%d scenario-hit=%.0f%%)",
		a.Processed.Value(), a.DeadlineMisses.Value(), 100*a.ScenarioHitRate())
}
