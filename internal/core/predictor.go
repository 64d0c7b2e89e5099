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

// Observation is the per-frame record of one executed frame: the
// predictor's training and evaluation input and the online feedback of the
// runtime manager and the shadow backends alike. Ms is indexed by
// tasks.IndexOf; Mask bit i is set when task i executed this frame.
type Observation struct {
	Scenario       flowgraph.Scenario
	AnalysisPixels int // region the analysis tasks processed this frame
	EstROIPixels   int // ROI estimated this frame (0 if none) — next frame's region
	FramePixels    int // full-frame pixel count
	Ms             [tasks.NumNames]float64
	Mask           uint16
	// TotalMs is the task times summed in task-index order: the quantity a
	// forecast's TotalMs predicts, and what the shadow scoreboard scores.
	TotalMs float64
	// LatencyMs is the frame latency the report states — what the latency
	// budget and the Section 7 accuracy are judged on. The engine reports
	// the task times summed in execution order, so on its reports the two
	// totals agree up to rounding.
	LatencyMs float64

	// Deprecated: TaskMs is always nil; read Ms[tasks.IndexOf(task)]. It
	// remains only because the benchmark module's replay (benchmark/replay.go)
	// indexes it by task name and must keep compiling until it changes.
	TaskMs map[tasks.Name]float64
}

// Prediction is a next-frame forecast: the scenario expected and per-task
// times for that scenario's active set (Mask bit i set when Ms[i] is a real
// prediction), summed into TotalMs in task-index order.
type Prediction struct {
	Scenario flowgraph.Scenario
	Ms       [tasks.NumNames]float64
	Mask     uint16
	TotalMs  float64
}

// DenseFromReport fills dst from a pipeline report without allocating. It
// is the one place a report becomes an observation: on the serving commit
// path and, through FromReports, for the training corpus.
func DenseFromReport(rep *pipeline.Report, framePixels int, dst *Observation) {
	*dst = Observation{
		Scenario:       rep.Scenario,
		AnalysisPixels: rep.AnalysisPixels,
		EstROIPixels:   rep.ROI.Area(),
		FramePixels:    framePixels,
		LatencyMs:      rep.LatencyMs,
	}
	for _, e := range rep.Execs {
		if ti := tasks.IndexOf(e.Task); ti >= 0 {
			dst.Ms[ti] = e.Ms
			dst.Mask |= 1 << uint(ti)
		}
	}
	// Sum in task-index order whatever order the tasks ran in: float
	// addition is not associative at the ulp level and the reports must be
	// byte-stable. Entries of tasks that did not run are zero.
	for _, ms := range dst.Ms {
		dst.TotalMs += ms
	}
}

// FromReports converts pipeline reports into observations.
func FromReports(reports []pipeline.Report, framePixels int) []Observation {
	out := make([]Observation, len(reports))
	for i := range reports {
		DenseFromReport(&reports[i], framePixels, &out[i])
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

// TrainConfig is the predictor's training configuration. It has no fields:
// training uses the paper's constants Alpha and MaxStates.
type TrainConfig struct{}

// The paper's training constants: the Eq. 1 EWMA smoothing factor and the
// Markov state cap of Table 2a.
const (
	Alpha     = 0.15
	MaxStates = 10
)

// MetricsSink receives the predictor's per-frame prediction-vs-actual
// samples: for every executed frame, one TaskSample per task that was both
// predicted and executed (task is its tasks.IndexOf index), then one
// ScenarioSample comparing the state table's forecast with the scenario that
// actually ran. Implementations must be cheap and allocation-free — the
// samples fire on the frame path.
type MetricsSink interface {
	TaskSample(task int, predictedMs, actualMs float64)
	ScenarioSample(predicted, actual flowgraph.Scenario)
}

// Predictor is the assembled Triple-C model set.
type Predictor struct {
	Models    map[tasks.Name]Model
	Scenarios *ScenarioTable

	rdgChain *EWMAMarkovModel // kept for Table 2a access

	// dense holds Models by tasks.IndexOf (nil: no model), filled once by
	// Train and Load so the per-frame paths never hash a task name.
	dense [tasks.NumNames]Model

	// What the forecasts read of the last observed frame, by value: the
	// caller's Observation may be refilled per frame.
	last struct {
		scenario     flowgraph.Scenario
		estROIPixels int
		framePixels  int
	}
	seen bool

	sink     MetricsSink
	lastPred Prediction // most recent next-frame forecast, for error accounting
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

// Corpus is a training set grouped the way every trainer reads it, by
// tasks.IndexOf: per-sequence time series of the data-dependent tasks
// (RDG FULL, CPLS SEL, GW EXT), pooled samples of the constant tasks, and
// the (analysis pixels, ms) pairs of RDG ROI for the Eq. 3 growth fit.
type Corpus struct {
	Series     [tasks.NumNames][][]float64
	Samples    [tasks.NumNames][]float64
	ROIX, ROIY []float64
}

// GroupCorpus groups training sequences into a Corpus.
func GroupCorpus(sequences [][]Observation) *Corpus {
	c := &Corpus{}
	for _, seq := range sequences {
		var cur [tasks.NumNames][]float64
		for i := range seq {
			obs := &seq[i]
			for ti, ms := range obs.Ms {
				if obs.Mask&(1<<uint(ti)) == 0 {
					continue
				}
				switch allNames[ti] {
				case tasks.NameRDGFull, tasks.NameCPLSSel, tasks.NameGWExt:
					cur[ti] = append(cur[ti], ms)
				case tasks.NameRDGROI:
					c.ROIX = append(c.ROIX, float64(obs.AnalysisPixels))
					c.ROIY = append(c.ROIY, ms)
				default:
					c.Samples[ti] = append(c.Samples[ti], ms)
				}
			}
		}
		for ti, s := range cur {
			if len(s) > 0 {
				c.Series[ti] = append(c.Series[ti], s)
			}
		}
	}
	return c
}

// Train fits all models from one or more observation sequences (the paper
// trains on 37 sequences totalling 1,921 frames).
func Train(sequences [][]Observation, _ TrainConfig) (*Predictor, error) {
	if len(sequences) == 0 {
		return nil, errors.New("core: no training sequences")
	}
	c := GroupCorpus(sequences)
	table := &ScenarioTable{}
	for _, seq := range sequences {
		for i := 1; i < len(seq); i++ {
			table.Add(seq[i-1].Scenario, seq[i].Scenario)
		}
	}
	p := &Predictor{
		Models:    map[tasks.Name]Model{},
		Scenarios: table,
	}

	// EWMA + Markov models. The ridge chain is trained on the union of the
	// RDG FULL residuals and the detrended RDG ROI residuals — the paper
	// generates "a single Markov chain for the ridge-detection task".
	rdgSeries := c.Series[tasks.IndexOf(tasks.NameRDGFull)]
	var rdgGrowth ewma.LinearGrowth
	haveROI := len(c.ROIX) >= 2
	if haveROI {
		g, err := ewma.FitLinearGrowth(c.ROIX, c.ROIY)
		if err == nil {
			rdgGrowth = g
			detrended, err := g.Detrend(c.ROIX, c.ROIY)
			if err == nil {
				rdgSeries = append(rdgSeries, detrendedToSeries(detrended)...)
			}
		} else {
			haveROI = false
		}
	}
	if len(rdgSeries) > 0 {
		m, err := NewEWMAMarkovModel(rdgSeries, Alpha, MaxStates, "RDG")
		if err != nil {
			return nil, fmt.Errorf("core: RDG model: %w", err)
		}
		p.Models[tasks.NameRDGFull] = m
		p.rdgChain = m
		if haveROI {
			lm, err := NewLinearMarkovModel(rdgGrowth, m.Chain(), "RDG")
			if err != nil {
				return nil, err
			}
			p.Models[tasks.NameRDGROI] = lm
		}
	}
	for task, label := range map[tasks.Name]string{
		tasks.NameCPLSSel: "CPLS",
		tasks.NameGWExt:   "GW",
	} {
		if series := c.Series[tasks.IndexOf(task)]; len(series) > 0 {
			m, err := NewEWMAMarkovModel(series, Alpha, MaxStates, label)
			if err != nil {
				return nil, fmt.Errorf("core: %s model: %w", task, err)
			}
			p.Models[task] = m
		}
	}
	for ti, samples := range c.Samples {
		if len(samples) == 0 {
			continue
		}
		m, err := NewConstantModel(samples)
		if err != nil {
			return nil, fmt.Errorf("core: %s model: %w", allNames[ti], err)
		}
		p.Models[allNames[ti]] = m
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
// Samples reach the sink in task-index order; nothing allocates.
func (p *Predictor) Observe(obs Observation) {
	if p.sink != nil && p.havePred {
		scored := obs.Mask & p.lastPred.Mask
		for ti := range obs.Ms {
			if scored&(1<<uint(ti)) != 0 {
				p.sink.TaskSample(ti, p.lastPred.Ms[ti], obs.Ms[ti])
			}
		}
		p.sink.ScenarioSample(p.lastPred.Scenario, obs.Scenario)
		p.havePred = false
	}
	ctx := Context{ROIPixels: obs.AnalysisPixels}
	for ti, m := range p.dense {
		if m != nil && obs.Mask&(1<<uint(ti)) != 0 {
			m.Observe(ctx, obs.Ms[ti])
		}
	}
	p.last.scenario, p.last.estROIPixels, p.last.framePixels = obs.Scenario, obs.EstROIPixels, obs.FramePixels
	p.seen = true
}

// PredictNext forecasts the next frame's scenario and per-task computation
// times from everything observed so far. Before any observation it assumes
// the worst-case scenario at full granularity. Per-task times are in
// task-index order, which is the scenario's pipeline order, so TotalMs sums
// the same terms in the same order.
func (p *Predictor) PredictNext() Prediction {
	pred := Prediction{Scenario: flowgraph.WorstCase()}
	if p.seen {
		pred.Scenario = p.ConstrainScenario(p.Scenarios.MostLikelyNext(p.last.scenario))
	}
	pred.Mask, pred.TotalMs = p.PredictTasksInto(TaskMask(pred.Scenario), p.NextContext(), &pred.Ms)
	if p.sink != nil {
		// Remember the forecast so the next Observe can score it.
		p.lastPred = pred
		p.havePred = true
	}
	return pred
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
// latencies the frames achieved. The first warmup frames of each sequence
// are excluded.
func (p *Predictor) Evaluate(sequences [][]Observation, warmup int) (Accuracy, error) {
	if warmup < 1 {
		warmup = 1
	}
	var condPred, uncondPred, actual []float64
	var ms [tasks.NumNames]float64
	hits, total := 0, 0
	for _, seq := range sequences {
		p.ResetOnline()
		for i := range seq {
			obs := &seq[i]
			if i >= warmup {
				pr := p.PredictNext()
				// Conditional: the models applied to the tasks that actually
				// ran, at the region size they actually processed — the
				// Fig. 7 prediction curve.
				_, cond := p.PredictTasksInto(obs.Mask, Context{ROIPixels: obs.AnalysisPixels}, &ms)
				condPred = append(condPred, cond)
				uncondPred = append(uncondPred, pr.TotalMs)
				actual = append(actual, obs.LatencyMs)
				if pr.Scenario == obs.Scenario {
					hits++
				}
				total++
			}
			p.Observe(*obs)
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
	var preds, acts [tasks.NumNames][]float64
	sampled := false
	for _, seq := range sequences {
		p.ResetOnline()
		for i := range seq {
			obs := &seq[i]
			if i >= warmup {
				ctx := Context{ROIPixels: obs.AnalysisPixels}
				for ti, m := range p.dense {
					if m == nil || obs.Mask&(1<<uint(ti)) == 0 {
						continue
					}
					preds[ti] = append(preds[ti], m.Predict(ctx))
					acts[ti] = append(acts[ti], obs.Ms[ti])
					sampled = true
				}
			}
			p.Observe(*obs)
		}
	}
	if !sampled {
		return nil, errors.New("core: no frames to evaluate")
	}
	var out []TaskAccuracy
	for ti, a := range acts {
		if len(a) == 0 {
			continue
		}
		mape, err := stats.MeanAbsPercentError(preds[ti], a)
		if err != nil {
			continue
		}
		worst, err := stats.MaxAbsPercentError(preds[ti], a)
		if err != nil {
			continue
		}
		out = append(out, TaskAccuracy{Task: allNames[ti], Mean: 1 - mape, Worst: worst, Samples: len(a)})
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
