package core

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"triplec/internal/bandwidth"
	"triplec/internal/ewma"
	"triplec/internal/flowgraph"
	"triplec/internal/memmodel"
	"triplec/internal/pipeline"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Observation is the per-frame training/online input of the predictor,
// extracted from a pipeline report.
type Observation struct {
	Scenario       flowgraph.Scenario
	AnalysisPixels int // region the analysis tasks processed this frame
	EstROIPixels   int // ROI estimated this frame (0 if none) — next frame's region
	FramePixels    int // full-frame pixel count
	TaskMs         map[tasks.Name]float64
	TotalMs        float64
}

// FromReports converts pipeline reports (serial mapping) into observations.
func FromReports(reports []pipeline.Report, framePixels int) []Observation {
	out := make([]Observation, len(reports))
	for i := range reports {
		r := &reports[i]
		taskMs := make(map[tasks.Name]float64, len(r.Execs))
		for _, e := range r.Execs {
			taskMs[e.Task] = e.Ms
		}
		out[i] = Observation{
			Scenario:       r.Scenario,
			AnalysisPixels: r.AnalysisPixels,
			EstROIPixels:   r.ROI.Area(),
			FramePixels:    framePixels,
			TaskMs:         taskMs,
			TotalMs:        r.LatencyMs,
		}
	}
	return out
}

// ScenarioTable is the paper's "state table" for the data-dependent switch
// statements: an 8x8 first-order transition model over flow-graph scenarios.
type ScenarioTable struct {
	counts [8][8]float64
}

// Add counts one observed scenario transition.
func (t *ScenarioTable) Add(from, to flowgraph.Scenario) {
	t.counts[from.Index()][to.Index()]++
}

// P returns the transition probability; unseen rows predict self-transition.
func (t *ScenarioTable) P(from, to flowgraph.Scenario) float64 {
	row := t.counts[from.Index()]
	total := 0.0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		if from == to {
			return 1
		}
		return 0
	}
	return row[to.Index()] / total
}

// AppendSuccessors appends to dst the scenarios reachable from `from` with
// transition probability at least minP, in descending probability order.
// The runtime manager plans pessimistically across this set so that a
// plausible switch to an expensive scenario is already provisioned for.
func (t *ScenarioTable) AppendSuccessors(dst []flowgraph.Scenario, from flowgraph.Scenario, minP float64) []flowgraph.Scenario {
	base := len(dst)
	var ps [8]float64 // ps[k] is the probability of dst[base+k]
	for i := 0; i < 8; i++ {
		to := flowgraph.FromIndex(i)
		p := t.P(from, to)
		if p < minP || p <= 0 {
			continue
		}
		// Stable insertion by descending probability: equal probabilities
		// keep scenario-index order.
		k := len(dst) - base
		dst = append(dst, to)
		for ; k > 0 && ps[k-1] < p; k-- {
			dst[base+k], ps[k] = dst[base+k-1], ps[k-1]
		}
		dst[base+k], ps[k] = to, p
	}
	return dst
}

// MostLikelyNext returns the most probable successor scenario.
func (t *ScenarioTable) MostLikelyNext(from flowgraph.Scenario) flowgraph.Scenario {
	best, bestP := from, -1.0
	for i := 0; i < 8; i++ {
		to := flowgraph.FromIndex(i)
		if p := t.P(from, to); p > bestP {
			best, bestP = to, p
		}
	}
	return best
}

// TrainConfig tunes predictor training.
type TrainConfig struct {
	// Alpha is the EWMA smoothing factor (Eq. 1); default 0.15.
	Alpha float64
	// MaxStates caps the Markov state count (Table 2a uses 10); default 10.
	MaxStates int
	// OnlineTraining lets the deployed models keep counting transitions
	// (the paper's profiling feedback loop).
	OnlineTraining bool
}

func (c TrainConfig) withDefaults() TrainConfig {
	if c.Alpha == 0 {
		c.Alpha = 0.15
	}
	if c.MaxStates == 0 {
		c.MaxStates = 10
	}
	return c
}

// MetricsSink receives the predictor's per-frame prediction-vs-actual
// samples: for every executed frame, one TaskSample per task that was both
// predicted and executed, then one ScenarioSample comparing the state
// table's forecast with the scenario that actually ran. Implementations
// must be cheap and allocation-free — the samples fire on the frame path.
type MetricsSink interface {
	TaskSample(task tasks.Name, predictedMs, actualMs float64)
	ScenarioSample(predicted, actual flowgraph.Scenario)
}

// Predictor is the assembled Triple-C model set.
type Predictor struct {
	Models    map[tasks.Name]Model
	Scenarios *ScenarioTable

	cfg      TrainConfig
	rdgChain *EWMAMarkovModel // kept for Table 2a access

	// dense holds Models by tasks.IndexOf (nil: no model), filled once by
	// Train and Load so the per-frame paths never hash a task name.
	dense [tasks.NumNames]Model

	// What the forecasts read of the last observed frame, by value: the
	// caller's Observation (and its TaskMs map) may be refilled per frame.
	last struct {
		scenario     flowgraph.Scenario
		estROIPixels int
		framePixels  int
	}
	seen bool

	sink     MetricsSink
	lastPred FramePrediction // most recent next-frame forecast, for error accounting
	havePred bool
}

// allNames caches the allocating tasks.AllNames() for the per-frame paths.
var allNames = tasks.AllNames()

// indexModels fills the dense model handles from Models.
func (p *Predictor) indexModels() {
	for ti, task := range allNames {
		p.dense[ti] = p.Models[task]
	}
}

// Train fits all models from one or more observation sequences (the paper
// trains on 37 sequences totalling 1,921 frames).
func Train(sequences [][]Observation, cfg TrainConfig) (*Predictor, error) {
	cfg = cfg.withDefaults()
	if len(sequences) == 0 {
		return nil, errors.New("core: no training sequences")
	}

	// Gather per-sequence series for the data-dependent tasks and pooled
	// samples for the constant tasks.
	perTaskSeries := map[tasks.Name][][]float64{}
	constSamples := map[tasks.Name][]float64{}
	var roiX, roiY []float64 // (analysis pixels, ms) pairs for Eq. 3
	table := &ScenarioTable{}

	for _, seq := range sequences {
		cur := map[tasks.Name][]float64{}
		for i, obs := range seq {
			if i > 0 {
				table.Add(seq[i-1].Scenario, obs.Scenario)
			}
			for task, ms := range obs.TaskMs {
				switch task {
				case tasks.NameRDGFull, tasks.NameCPLSSel, tasks.NameGWExt:
					cur[task] = append(cur[task], ms)
				case tasks.NameRDGROI:
					roiX = append(roiX, float64(obs.AnalysisPixels))
					roiY = append(roiY, ms)
				default:
					constSamples[task] = append(constSamples[task], ms)
				}
			}
		}
		for task, s := range cur {
			perTaskSeries[task] = append(perTaskSeries[task], s)
		}
	}

	p := &Predictor{
		Models:    map[tasks.Name]Model{},
		Scenarios: table,
		cfg:       cfg,
	}

	// EWMA + Markov models. The ridge chain is trained on the union of the
	// RDG FULL residuals and the detrended RDG ROI residuals — the paper
	// generates "a single Markov chain for the ridge-detection task".
	rdgSeries := perTaskSeries[tasks.NameRDGFull]
	var rdgGrowth ewma.LinearGrowth
	haveROI := len(roiX) >= 2
	if haveROI {
		g, err := ewma.FitLinearGrowth(roiX, roiY)
		if err == nil {
			rdgGrowth = g
			detrended, err := g.Detrend(roiX, roiY)
			if err == nil {
				rdgSeries = append(rdgSeries, detrendedToSeries(detrended)...)
			}
		} else {
			haveROI = false
		}
	}
	if len(rdgSeries) > 0 {
		m, err := NewEWMAMarkovModel(rdgSeries, cfg.Alpha, cfg.MaxStates, "RDG")
		if err != nil {
			return nil, fmt.Errorf("core: RDG model: %w", err)
		}
		m.OnlineTraining = cfg.OnlineTraining
		p.Models[tasks.NameRDGFull] = m
		p.rdgChain = m
		if haveROI {
			lm, err := NewLinearMarkovModel(rdgGrowth, m.Chain(), "RDG")
			if err != nil {
				return nil, err
			}
			lm.OnlineTraining = cfg.OnlineTraining
			p.Models[tasks.NameRDGROI] = lm
		}
	}
	for task, label := range map[tasks.Name]string{
		tasks.NameCPLSSel: "CPLS",
		tasks.NameGWExt:   "GW",
	} {
		if series := perTaskSeries[task]; len(series) > 0 {
			m, err := NewEWMAMarkovModel(series, cfg.Alpha, cfg.MaxStates, label)
			if err != nil {
				return nil, fmt.Errorf("core: %s model: %w", task, err)
			}
			m.OnlineTraining = cfg.OnlineTraining
			p.Models[task] = m
		}
	}
	for task, samples := range constSamples {
		m, err := NewConstantModel(samples)
		if err != nil {
			return nil, fmt.Errorf("core: %s model: %w", task, err)
		}
		p.Models[task] = m
	}
	if len(p.Models) == 0 {
		return nil, errors.New("core: training produced no models")
	}
	p.indexModels()
	return p, nil
}

// detrendedToSeries wraps a detrended residual vector as a single series.
func detrendedToSeries(r []float64) [][]float64 {
	if len(r) == 0 {
		return nil
	}
	return [][]float64{r}
}

// RDGChain exposes the trained ridge Markov chain (Table 2a).
func (p *Predictor) RDGChain() *EWMAMarkovModel { return p.rdgChain }

// ResetOnline clears all per-sequence online state.
func (p *Predictor) ResetOnline() {
	for _, m := range p.Models {
		m.ResetOnline()
	}
	p.seen = false
	p.havePred = false
}

// SetMetricsSink installs (or, with nil, removes) the prediction-error
// sink. Like Observe/PredictNext it follows the predictor's single-
// goroutine contract.
func (p *Predictor) SetMetricsSink(s MetricsSink) {
	p.sink = s
	p.havePred = false
}

// Observe feeds the actual resource usage of the frame just executed.
// When a metrics sink is installed, the observation is first scored against
// the most recent PredictNext forecast — the paper's profiling step
// ("statistical information of the differences between the actually
// consumed resources and the predicted values") made observable live.
func (p *Predictor) Observe(obs Observation) {
	var dense FrameObs
	obs.Dense(&dense)
	p.ObserveFrame(&dense)
}

// ObserveFrame is Observe for the dense observation form — the
// allocation-free core. Samples reach the sink in task-index order.
func (p *Predictor) ObserveFrame(obs *FrameObs) {
	if p.sink != nil && p.havePred {
		scored := obs.Mask & p.lastPred.Mask
		for ti, task := range allNames {
			if scored&(1<<uint(ti)) != 0 {
				p.sink.TaskSample(task, p.lastPred.TaskMs[ti], obs.TaskMs[ti])
			}
		}
		p.sink.ScenarioSample(p.lastPred.Scenario, obs.Scenario)
		p.havePred = false
	}
	ctx := Context{ROIPixels: obs.AnalysisPixels}
	for ti, m := range p.dense {
		if m != nil && obs.Mask&(1<<uint(ti)) != 0 {
			m.Observe(ctx, obs.TaskMs[ti])
		}
	}
	p.last.scenario, p.last.estROIPixels, p.last.framePixels = obs.Scenario, obs.EstROIPixels, obs.FramePixels
	p.seen = true
}

// Prediction is the Triple-C forecast for the next frame.
type Prediction struct {
	Scenario flowgraph.Scenario
	TaskMs   map[tasks.Name]float64
	TotalMs  float64
}

// PredictNext forecasts the next frame's scenario and per-task computation
// times from everything observed so far. Before any observation it assumes
// the worst-case scenario at full granularity.
func (p *Predictor) PredictNext() Prediction {
	var dense FramePrediction
	p.PredictNextInto(&dense)
	pred := Prediction{Scenario: dense.Scenario, TaskMs: map[tasks.Name]float64{}, TotalMs: dense.TotalMs}
	for ti, task := range allNames {
		if dense.Mask&(1<<uint(ti)) != 0 {
			pred.TaskMs[task] = dense.TaskMs[ti]
		}
	}
	return pred
}

// PredictNextInto is the allocation-free PredictNext: it writes the forecast
// into *dst, per-task times in dense task-index order (which is the
// scenario's pipeline order, so TotalMs sums the same terms in the same
// order).
func (p *Predictor) PredictNextInto(dst *FramePrediction) {
	*dst = FramePrediction{Scenario: flowgraph.WorstCase()}
	if p.seen {
		dst.Scenario = p.ConstrainScenario(p.Scenarios.MostLikelyNext(p.last.scenario))
	}
	dst.Mask, dst.TotalMs = p.PredictTasksInto(TaskMask(dst.Scenario), p.NextContext(), &dst.TaskMs)
	if p.sink != nil {
		// Remember the forecast so the next Observe can score it.
		p.lastPred = *dst
		p.havePred = true
	}
}

// ConstrainScenario forces the physically determined part of a candidate
// next-frame scenario: the granularity switch is not probabilistic — the
// next frame processes an ROI exactly when the last frame estimated one.
func (p *Predictor) ConstrainScenario(s flowgraph.Scenario) flowgraph.Scenario {
	if p.seen {
		s.ROIKnown = p.last.estROIPixels > 0
	}
	return s
}

// LastScenario returns the most recently observed scenario, and false when
// nothing has been observed yet.
func (p *Predictor) LastScenario() (flowgraph.Scenario, bool) {
	if !p.seen {
		return flowgraph.Scenario{}, false
	}
	return p.last.scenario, true
}

// NextContext returns the model context for the upcoming frame: the ROI
// estimated by the last observed frame when available, else the full frame.
func (p *Predictor) NextContext() Context {
	if !p.seen {
		return Context{}
	}
	if p.last.estROIPixels > 0 {
		return Context{ROIPixels: p.last.estROIPixels}
	}
	return Context{ROIPixels: p.last.framePixels}
}

// PredictTasksFor returns per-task predictions for one scenario's active
// task set under the given context.
func (p *Predictor) PredictTasksFor(s flowgraph.Scenario, ctx Context) map[tasks.Name]float64 {
	var ms [tasks.NumNames]float64
	mask, _ := p.PredictTasksInto(TaskMask(s), ctx, &ms)
	out := map[tasks.Name]float64{}
	for ti, task := range allNames {
		if mask&(1<<uint(ti)) != 0 {
			out[task] = ms[ti]
		}
	}
	return out
}

// PredictTasksInto predicts every task of the set `mask` (bit i: task i of
// tasks.AllNames) that has a model, under the current online state. It
// writes the times into dst — entries outside the returned mask are zeroed —
// and returns the mask of the tasks predicted and their sum, accumulated in
// task-index order. Model.Predict is pure, so predicting a union of
// scenarios' task sets once equals predicting each scenario and taking the
// per-task maximum.
func (p *Predictor) PredictTasksInto(mask uint16, ctx Context, dst *[tasks.NumNames]float64) (predicted uint16, totalMs float64) {
	for ti := range dst {
		dst[ti] = 0
		if mask&(1<<uint(ti)) == 0 || p.dense[ti] == nil {
			continue
		}
		ms := p.dense[ti].Predict(ctx)
		dst[ti] = ms
		predicted |= 1 << uint(ti)
		totalMs += ms
	}
	return predicted, totalMs
}

// PredictForTasks predicts the summed execution time of a given task set
// under the current online state — the quantity Fig. 7's "prediction model"
// curve plots for the tasks that actually execute.
func (p *Predictor) PredictForTasks(taskSet []tasks.Name, ctx Context) float64 {
	total := 0.0
	for _, task := range taskSet {
		if m, ok := p.Models[task]; ok {
			total += m.Predict(ctx)
		}
	}
	return total
}

// Accuracy summarizes prediction quality the way the paper's Section 7
// reports it. Mean and WorstExcursion score the resource models against the
// tasks that actually executed (the Fig. 7 prediction curve); the paper's
// "sporadic excursions up to 20-30%" appear here around the data-dependent
// flow-graph switches. ScenarioHits separately scores the switch state
// table's next-scenario prediction.
type Accuracy struct {
	Mean           float64 // 1 - MAPE of the per-frame model predictions
	WorstExcursion float64 // largest single-frame relative model error
	UncondMean     float64 // 1 - MAPE including scenario misprediction
	Frames         int     // frames evaluated
	ScenarioHits   float64 // fraction of correctly predicted scenarios
}

// Evaluate replays test sequences through the trained predictor (online
// state reset per sequence) and scores next-frame predictions against the
// actual totals. The first warmup frames of each sequence are excluded.
func (p *Predictor) Evaluate(sequences [][]Observation, warmup int) (Accuracy, error) {
	if warmup < 1 {
		warmup = 1
	}
	var condPred, uncondPred, actual []float64
	hits, total := 0, 0
	for _, seq := range sequences {
		p.ResetOnline()
		for i, obs := range seq {
			if i >= warmup {
				pr := p.PredictNext()
				// Conditional: the models applied to the tasks that actually
				// ran, at the region size they actually processed.
				taskSet := make([]tasks.Name, 0, len(obs.TaskMs))
				for task := range obs.TaskMs {
					taskSet = append(taskSet, task)
				}
				cond := p.PredictForTasks(taskSet, Context{ROIPixels: obs.AnalysisPixels})
				condPred = append(condPred, cond)
				uncondPred = append(uncondPred, pr.TotalMs)
				actual = append(actual, obs.TotalMs)
				if pr.Scenario == obs.Scenario {
					hits++
				}
				total++
			}
			p.Observe(obs)
		}
	}
	if len(actual) == 0 {
		return Accuracy{}, errors.New("core: no frames to evaluate")
	}
	mape, err := stats.MeanAbsPercentError(condPred, actual)
	if err != nil {
		return Accuracy{}, err
	}
	worst, err := stats.MaxAbsPercentError(condPred, actual)
	if err != nil {
		return Accuracy{}, err
	}
	uncondMAPE, err := stats.MeanAbsPercentError(uncondPred, actual)
	if err != nil {
		return Accuracy{}, err
	}
	return Accuracy{
		Mean:           1 - mape,
		WorstExcursion: worst,
		UncondMean:     1 - uncondMAPE,
		Frames:         len(actual),
		ScenarioHits:   float64(hits) / float64(total),
	}, nil
}

// TaskAccuracy is the per-task prediction quality over an evaluation run.
type TaskAccuracy struct {
	Task    tasks.Name
	Mean    float64 // 1 - MAPE of this task's one-step predictions
	Worst   float64 // largest single relative error
	Samples int
}

// EvaluatePerTask scores each task model independently against the frames
// where the task actually ran — the per-row view behind Table 2(b).
func (p *Predictor) EvaluatePerTask(sequences [][]Observation, warmup int) ([]TaskAccuracy, error) {
	if warmup < 1 {
		warmup = 1
	}
	preds := map[tasks.Name][]float64{}
	acts := map[tasks.Name][]float64{}
	for _, seq := range sequences {
		p.ResetOnline()
		for i, obs := range seq {
			if i >= warmup {
				ctx := Context{ROIPixels: obs.AnalysisPixels}
				for task, actual := range obs.TaskMs {
					m, ok := p.Models[task]
					if !ok {
						continue
					}
					preds[task] = append(preds[task], m.Predict(ctx))
					acts[task] = append(acts[task], actual)
				}
			}
			p.Observe(obs)
		}
	}
	if len(acts) == 0 {
		return nil, errors.New("core: no frames to evaluate")
	}
	var out []TaskAccuracy
	for _, task := range tasks.AllNames() {
		a := acts[task]
		if len(a) == 0 {
			continue
		}
		mape, err := stats.MeanAbsPercentError(preds[task], a)
		if err != nil {
			continue
		}
		worst, err := stats.MaxAbsPercentError(preds[task], a)
		if err != nil {
			continue
		}
		out = append(out, TaskAccuracy{Task: task, Mean: 1 - mape, Worst: worst, Samples: len(a)})
	}
	return out, nil
}

// ModelSummary renders Table 2(b): task -> prediction model.
func (p *Predictor) ModelSummary() string {
	names := make([]string, 0, len(p.Models))
	for t := range p.Models {
		names = append(names, string(t))
	}
	sort.Strings(names)
	var b strings.Builder
	b.WriteString("Task        Prediction Model [ms]\n")
	for _, n := range names {
		fmt.Fprintf(&b, "%-11s %s\n", n, p.Models[tasks.Name(n)].Describe())
	}
	return b.String()
}

// ResourcePrediction extends the computation forecast with the other two
// C's: cache-memory requirements and communication bandwidth for the
// predicted scenario.
type ResourcePrediction struct {
	Prediction
	MemoryKB  map[tasks.Name]int // per-task footprints (Table 1)
	InterMBs  float64            // flow-graph bandwidth of the scenario
	IntraMBs  float64            // cache-overflow bandwidth of the scenario
	TotalMBs  float64
	FrameKB   int
	CacheKB   int
	FrameRate float64
}

// PredictResources produces the full three-C forecast for the next frame at
// the given modeled geometry.
func (p *Predictor) PredictResources(frameKB, cacheKB int, rate float64) (ResourcePrediction, error) {
	base := p.PredictNext()
	out := ResourcePrediction{
		Prediction: base,
		MemoryKB:   map[tasks.Name]int{},
		FrameKB:    frameKB,
		CacheKB:    cacheKB,
		FrameRate:  rate,
	}
	for _, task := range base.Scenario.ActiveTasks() {
		req, err := memmodel.Lookup(task, base.Scenario.RDGOn, frameKB)
		if err != nil {
			return ResourcePrediction{}, err
		}
		out.MemoryKB[task] = req.TotalKB()
	}
	an, err := bandwidth.Analyze(base.Scenario, frameKB, cacheKB, rate)
	if err != nil {
		return ResourcePrediction{}, err
	}
	out.InterMBs = an.InterMBs
	out.IntraMBs = an.IntraMBs
	out.TotalMBs = an.TotalMBs()
	return out, nil
}
