// Package shadow races pluggable prediction backends (core.Backend)
// against the deployed Triple-C predictor on live observation streams: a
// scoreboard feeds every backend the frames the pipeline actually
// executed, scores each backend's previous forecast against the actuals,
// and keeps per-backend × per-scenario × per-task error distributions,
// scenario hit rates and regret-vs-deployed — with zero influence on
// scheduling and zero allocations on the frame path. The results surface
// through Prometheus families, the /debug/predictorz page and the
// `triplec shadow` replay report.
package shadow

import (
	"errors"
	"fmt"

	"triplec/internal/core"
	"triplec/internal/ewma"
	"triplec/internal/flowgraph"
	"triplec/internal/markov"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Backend names, stable across reports, metrics labels and CI floors.
const (
	BackendOrder2   = "order2-markov"
	BackendRidge    = "ridge-online"
	BackendQuantile = "quantile-p90"
)

// scenarioTable1 is a first-order scenario transition table with dense
// counts, updated online without allocating. Unlike the deployed
// predictor — whose state table is frozen after training — the shadow
// backends keep counting live transitions: online scenario learning is
// one of the hypotheses the bake-off exists to score.
type scenarioTable1 struct {
	counts [8][8]float64
}

func (t *scenarioTable1) add(from, to int) { t.counts[from][to]++ }

// mostLikely returns the most probable successor of `from`, falling back
// to self-transition for never-seen rows (the ScenarioTable convention).
func (t *scenarioTable1) mostLikely(from int) int {
	row := &t.counts[from]
	best, bestC, total := from, 0.0, 0.0
	for j := 0; j < 8; j++ {
		total += row[j]
		if row[j] > bestC {
			best, bestC = j, row[j]
		}
	}
	if total == 0 {
		return from
	}
	return best
}

// scenarioTable2 adds an order-2 layer: the state is the (previous,
// current) scenario pair, with the first-order marginal as fallback for
// unseen pairs — the Section 4 trade-off (longer memory vs. exponentially
// sparser estimates) applied to the switch statements instead of the
// residual chains.
type scenarioTable2 struct {
	pair  [64][8]float64
	first scenarioTable1
}

func (t *scenarioTable2) add(prev2, prev1, next int) {
	t.pair[prev2*8+prev1][next]++
	t.first.add(prev1, next)
}

func (t *scenarioTable2) mostLikely(prev2, prev1 int) int {
	row := &t.pair[prev2*8+prev1]
	best, bestC, total := -1, 0.0, 0.0
	for j := 0; j < 8; j++ {
		total += row[j]
		if row[j] > bestC {
			best, bestC = j, row[j]
		}
	}
	if total == 0 || best < 0 {
		return t.first.mostLikely(prev1)
	}
	return best
}

// denseChain2 is a markov.Chain2 lifted into flat arrays: the map-backed
// counts are fine for training, but a map insert or the fallback
// accumulation in Chain2.ExpectedNext would allocate on the frame path.
// counts is indexed [a*n*n + b*n + j]; marginal[b*n+j] carries the
// first-order fallback for pairs never observed.
type denseChain2 struct {
	q        *markov.Quantizer
	n        int
	counts   []float64
	marginal []float64
	reps     []float64
}

// liftChain2 flattens a trained Chain2.
func liftChain2(c *markov.Chain2) *denseChain2 {
	q := c.Quantizer()
	n := q.States()
	d := &denseChain2{
		q:        q,
		n:        n,
		counts:   make([]float64, n*n*n),
		marginal: make([]float64, n*n),
		reps:     make([]float64, n),
	}
	for j := 0; j < n; j++ {
		d.reps[j] = q.Representative(j)
	}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			row := c.Row(a, b)
			if row == nil {
				continue
			}
			for j, v := range row {
				d.counts[(a*n+b)*n+j] += v
				d.marginal[b*n+j] += v
			}
		}
	}
	return d
}

// expectedNext returns the expected next residual after (prev2, prev1),
// degrading pair → marginal → representative like Chain2.ExpectedNext.
func (d *denseChain2) expectedNext(prev2, prev1 float64) float64 {
	a, b := d.q.State(prev2), d.q.State(prev1)
	row := d.counts[(a*d.n+b)*d.n : (a*d.n+b+1)*d.n]
	total := 0.0
	for _, v := range row {
		total += v
	}
	if total == 0 {
		row = d.marginal[b*d.n : (b+1)*d.n]
		total = 0
		for _, v := range row {
			total += v
		}
	}
	if total == 0 {
		return d.reps[b]
	}
	exp := 0.0
	for j, v := range row {
		exp += v / total * d.reps[j]
	}
	return exp
}

// addTransition counts (prev2, prev1) → next online, in both the pair
// counts and the marginal — dense writes, no allocation.
func (d *denseChain2) addTransition(prev2, prev1, next float64) {
	a, b, j := d.q.State(prev2), d.q.State(prev1), d.q.State(next)
	d.counts[(a*d.n+b)*d.n+j]++
	d.marginal[b*d.n+j]++
}

// order2Model is the per-task model of the order-2 backend: the same
// long-term trend carriers as the paper's Table 2(b) (EWMA level, or the
// Eq. 3 growth line for RDG ROI, or a constant) with the short-term
// residual predicted by a second-order chain over the last TWO residuals.
type order2Model struct {
	filter   *ewma.Filter       // EWMA trend (nil when growth or constant)
	growth   *ewma.LinearGrowth // Eq. 3 trend (nil unless RDG ROI)
	chain    *denseChain2       // nil for constant tasks
	constant float64            // constant prediction / pre-prime fallback

	r1, r2 float64 // last and second-to-last residuals
	seen   int
}

func (m *order2Model) predict(roiPixels int) float64 {
	var pred float64
	switch {
	case m.growth != nil:
		pred = m.growth.Predict(float64(roiPixels))
	case m.filter != nil && m.filter.Primed():
		pred = m.filter.Value()
	default:
		pred = m.constant
	}
	if m.chain != nil && m.seen >= 2 {
		pred += m.chain.expectedNext(m.r2, m.r1)
	}
	if pred < 0 {
		pred = 0
	}
	return pred
}

func (m *order2Model) observe(roiPixels int, actualMs float64) {
	if m.chain == nil && m.filter == nil && m.growth == nil {
		return
	}
	var trend float64
	switch {
	case m.growth != nil:
		trend = m.growth.Predict(float64(roiPixels))
	case m.filter != nil:
		trend = m.filter.Update(actualMs)
	default:
		return
	}
	r := actualMs - trend
	if m.chain != nil {
		if m.seen >= 2 {
			m.chain.addTransition(m.r2, m.r1, r)
		}
		m.r2, m.r1 = m.r1, r
	}
	m.seen++
}

func (m *order2Model) reset() {
	if m.filter != nil {
		m.filter.Reset()
	}
	m.r1, m.r2 = 0, 0
	m.seen = 0
}

// Order2Backend is the "more memory" alternative: second-order chains for
// both the scenario switches and the per-task residuals. The paper
// dismisses higher orders because "the state space will grow
// exponentially" and the per-pair estimates go statistically
// insignificant; this backend exists to measure that claim against the
// first-order deployed model on live data.
type Order2Backend struct {
	models [tasks.NumNames]*order2Model
	table  scenarioTable2
	active *core.ScenarioTaskLists

	lastIdx [2]int // scenario indices of the last two frames
	last    core.Observation
	seen    int
}

// TrainOrder2Backend fits the backend from training sequences through the
// corpus grouping core.Train reads: per-sequence residual series for the
// data-dependent tasks, a growth fit for RDG ROI, pooled means elsewhere.
func TrainOrder2Backend(sequences [][]core.Observation) (*Order2Backend, error) {
	if len(sequences) == 0 {
		return nil, errors.New("shadow: no training sequences")
	}
	b := &Order2Backend{active: core.NewScenarioTaskLists()}
	for _, seq := range sequences {
		for i := 1; i < len(seq); i++ {
			if i >= 2 {
				b.table.add(seq[i-2].Scenario.Index(), seq[i-1].Scenario.Index(), seq[i].Scenario.Index())
			} else {
				b.table.first.add(seq[0].Scenario.Index(), seq[1].Scenario.Index())
			}
		}
	}
	c := core.GroupCorpus(sequences)

	// EWMA-trended tasks: residual series → order-2 chain, dense-lifted.
	for ti, series := range c.Series {
		var residualSets [][]float64
		var all []float64
		for _, s := range series {
			if len(s) == 0 {
				continue
			}
			_, hpf, err := ewma.Decompose(s, core.Alpha)
			if err != nil {
				return nil, err
			}
			residualSets = append(residualSets, hpf)
			all = append(all, s...)
		}
		if len(all) == 0 {
			continue
		}
		m := &order2Model{constant: stats.Mean(all)}
		if f, err := ewma.NewFilter(core.Alpha); err == nil {
			m.filter = f
		}
		if c2, err := markov.TrainOrder2(residualSets, core.MaxStates); err == nil {
			m.chain = liftChain2(c2)
		}
		b.models[ti] = m
	}
	// RDG ROI: growth trend plus an order-2 chain over the detrended
	// residuals (the paper shares the RDG chain; here the ROI task gets its
	// own second-order view of the same residual stream).
	if len(c.ROIX) >= 2 {
		if g, err := ewma.FitLinearGrowth(c.ROIX, c.ROIY); err == nil {
			m := &order2Model{growth: &g, constant: stats.Mean(c.ROIY)}
			if detrended, err := g.Detrend(c.ROIX, c.ROIY); err == nil && len(detrended) >= 3 {
				if c2, err := markov.TrainOrder2([][]float64{detrended}, core.MaxStates); err == nil {
					m.chain = liftChain2(c2)
				}
			}
			b.models[tasks.IndexOf(tasks.NameRDGROI)] = m
		}
	}
	for ti, samples := range c.Samples {
		if len(samples) > 0 {
			b.models[ti] = &order2Model{constant: stats.Mean(samples)}
		}
	}
	return b, nil
}

// Name implements core.Backend.
func (b *Order2Backend) Name() string { return BackendOrder2 }

// Observe implements core.Backend.
func (b *Order2Backend) Observe(obs *core.Observation) {
	si := obs.Scenario.Index()
	if b.seen >= 2 {
		b.table.add(b.lastIdx[0], b.lastIdx[1], si)
	} else if b.seen == 1 {
		b.table.first.add(b.lastIdx[1], si)
	}
	for ti := 0; ti < tasks.NumNames; ti++ {
		if obs.Mask&(1<<uint(ti)) == 0 || b.models[ti] == nil {
			continue
		}
		b.models[ti].observe(obs.AnalysisPixels, obs.Ms[ti])
	}
	b.lastIdx[0], b.lastIdx[1] = b.lastIdx[1], si
	b.last = *obs
	b.seen++
}

// Predict implements core.Backend.
func (b *Order2Backend) Predict(dst *core.Prediction) {
	*dst = core.Prediction{}
	roiPixels := 0
	switch {
	case b.seen == 0:
		dst.Scenario = flowgraph.WorstCase()
	case b.seen == 1:
		dst.Scenario = flowgraph.FromIndex(b.table.first.mostLikely(b.lastIdx[1]))
	default:
		dst.Scenario = flowgraph.FromIndex(b.table.mostLikely(b.lastIdx[0], b.lastIdx[1]))
	}
	if b.seen > 0 {
		// Same physics constraint as the deployed predictor: granularity is
		// determined by whether the last frame estimated an ROI.
		dst.Scenario.ROIKnown = b.last.EstROIPixels > 0
		if dst.Scenario.ROIKnown {
			roiPixels = b.last.EstROIPixels
		} else {
			roiPixels = b.last.FramePixels
		}
	}
	si := dst.Scenario.Index()
	for _, ti := range b.active.Lists[si] {
		if b.models[ti] == nil {
			continue
		}
		ms := b.models[ti].predict(roiPixels)
		dst.Ms[ti] = ms
		dst.Mask |= 1 << uint(ti)
		dst.TotalMs += ms
	}
}

// Reset implements core.Backend: per-sequence online state (filters,
// residual pairs, scenario history) clears; trained chains and the online
// transition counts persist, like the deployed predictor's tables.
func (b *Order2Backend) Reset() {
	for _, m := range b.models {
		if m != nil {
			m.reset()
		}
	}
	b.seen = 0
	b.lastIdx = [2]int{}
	b.last = core.Observation{}
}

// ridgeDim is the feature dimension of the online ridge backend: bias,
// scaled region size, region fraction, and the scenario one-hot.
const ridgeDim = 11

// rlsState is one task's recursive-least-squares regression with a
// forgetting factor — the fully feature-driven alternative to the paper's
// time-series models. All state is fixed-size arrays; update and predict
// are allocation-free.
type rlsState struct {
	w [ridgeDim]float64            // weights
	p [ridgeDim * ridgeDim]float64 // inverse-covariance estimate
	// scratch for the update (px = P·x, kv = gain vector)
	px, kv [ridgeDim]float64

	count int
	mean  float64 // running mean fallback until the regression has support
}

// rlsMinSamples gates the regression: below it the running mean predicts.
const rlsMinSamples = 8

// rlsInit resets P to a large multiple of the identity (diffuse prior).
func (s *rlsState) init() {
	s.w = [ridgeDim]float64{}
	s.p = [ridgeDim * ridgeDim]float64{}
	for i := 0; i < ridgeDim; i++ {
		s.p[i*ridgeDim+i] = 1e4
	}
	s.count = 0
	s.mean = 0
}

func (s *rlsState) predict(x *[ridgeDim]float64) float64 {
	if s.count < rlsMinSamples {
		return s.mean
	}
	y := 0.0
	for i := 0; i < ridgeDim; i++ {
		y += s.w[i] * x[i]
	}
	if y < 0 {
		y = 0
	}
	return y
}

// update performs one RLS step with forgetting factor lambda.
func (s *rlsState) update(x *[ridgeDim]float64, y, lambda float64) {
	s.count++
	s.mean += (y - s.mean) / float64(s.count)
	// px = P·x ; denom = λ + xᵀ·P·x
	denom := lambda
	for i := 0; i < ridgeDim; i++ {
		v := 0.0
		for j := 0; j < ridgeDim; j++ {
			v += s.p[i*ridgeDim+j] * x[j]
		}
		s.px[i] = v
		denom += v * x[i]
	}
	for i := 0; i < ridgeDim; i++ {
		s.kv[i] = s.px[i] / denom
	}
	// w += k (y − wᵀx)
	e := y
	for i := 0; i < ridgeDim; i++ {
		e -= s.w[i] * x[i]
	}
	for i := 0; i < ridgeDim; i++ {
		s.w[i] += s.kv[i] * e
	}
	// P = (P − k·(xᵀP)) / λ ; xᵀP = pxᵀ (P symmetric)
	for i := 0; i < ridgeDim; i++ {
		for j := 0; j < ridgeDim; j++ {
			s.p[i*ridgeDim+j] = (s.p[i*ridgeDim+j] - s.kv[i]*s.px[j]) / lambda
		}
	}
}

// RidgeBackend predicts each task's time by online ridge regression
// (recursive least squares with forgetting) on frame features — region
// size, region fraction and the scenario one-hot — instead of time-series
// structure. Scenarios come from its own online first-order table.
type RidgeBackend struct {
	reg    [tasks.NumNames]rlsState
	table  scenarioTable1
	active *core.ScenarioTaskLists
	lambda float64

	feat core.Observation // last frame, for next-frame features
	seen bool
	x    [ridgeDim]float64 // scratch feature vector
}

// NewRidgeBackend returns an untrained backend; warm-start it with
// WarmStart (TrainBackends does) so early frames are not pure fallback.
func NewRidgeBackend() *RidgeBackend {
	b := &RidgeBackend{active: core.NewScenarioTaskLists(), lambda: 0.995}
	for i := range b.reg {
		b.reg[i].init()
	}
	return b
}

// features fills the scratch vector for a frame processed at roiPixels
// under scenario index si.
func (b *RidgeBackend) features(roiPixels, framePixels, si int) {
	b.x = [ridgeDim]float64{}
	b.x[0] = 1
	b.x[1] = float64(roiPixels) / 1e4
	if framePixels > 0 {
		b.x[2] = float64(roiPixels) / float64(framePixels)
	}
	b.x[3+si] = 1
}

// Name implements core.Backend.
func (b *RidgeBackend) Name() string { return BackendRidge }

// Observe implements core.Backend.
func (b *RidgeBackend) Observe(obs *core.Observation) {
	si := obs.Scenario.Index()
	if b.seen {
		b.table.add(b.feat.Scenario.Index(), si)
	}
	b.features(obs.AnalysisPixels, obs.FramePixels, si)
	for ti := 0; ti < tasks.NumNames; ti++ {
		if obs.Mask&(1<<uint(ti)) == 0 {
			continue
		}
		b.reg[ti].update(&b.x, obs.Ms[ti], b.lambda)
	}
	b.feat = *obs
	b.seen = true
}

// Predict implements core.Backend.
func (b *RidgeBackend) Predict(dst *core.Prediction) {
	*dst = core.Prediction{}
	roiPixels := 0
	if !b.seen {
		dst.Scenario = flowgraph.WorstCase()
	} else {
		dst.Scenario = flowgraph.FromIndex(b.table.mostLikely(b.feat.Scenario.Index()))
		dst.Scenario.ROIKnown = b.feat.EstROIPixels > 0
		if dst.Scenario.ROIKnown {
			roiPixels = b.feat.EstROIPixels
		} else {
			roiPixels = b.feat.FramePixels
		}
	}
	si := dst.Scenario.Index()
	b.features(roiPixels, b.feat.FramePixels, si)
	for _, ti := range b.active.Lists[si] {
		ms := b.reg[ti].predict(&b.x)
		dst.Ms[ti] = ms
		dst.Mask |= 1 << uint(ti)
		dst.TotalMs += ms
	}
}

// Reset implements core.Backend: the regression weights are trained state
// and persist; only the frame history clears.
func (b *RidgeBackend) Reset() {
	b.seen = false
	b.feat = core.Observation{}
}

// p2Quantile is the P² (Jain & Chlamtac) streaming quantile estimator:
// five markers tracking the target quantile without storing samples —
// deterministic, fixed-size, allocation-free.
type p2Quantile struct {
	p       float64
	q       [5]float64 // marker heights
	n       [5]float64 // marker positions
	np      [5]float64 // desired positions
	dn      [5]float64 // position increments
	count   int
	initBuf [5]float64
}

func (e *p2Quantile) init(p float64) {
	*e = p2Quantile{p: p}
	e.dn = [5]float64{0, p / 2, p, (1 + p) / 2, 1}
}

func (e *p2Quantile) add(x float64) {
	if e.count < 5 {
		// Insertion into the sorted bootstrap buffer.
		i := e.count
		for i > 0 && e.initBuf[i-1] > x {
			e.initBuf[i] = e.initBuf[i-1]
			i--
		}
		e.initBuf[i] = x
		e.count++
		if e.count == 5 {
			e.q = e.initBuf
			e.n = [5]float64{1, 2, 3, 4, 5}
			e.np = [5]float64{1, 1 + 2*e.p, 1 + 4*e.p, 3 + 2*e.p, 5}
		}
		return
	}
	e.count++
	// Find the cell k the new sample falls into, updating extremes.
	var k int
	switch {
	case x < e.q[0]:
		e.q[0] = x
		k = 0
	case x >= e.q[4]:
		e.q[4] = x
		k = 3
	default:
		for k = 0; k < 4; k++ {
			if x < e.q[k+1] {
				break
			}
		}
	}
	for i := k + 1; i < 5; i++ {
		e.n[i]++
	}
	for i := 0; i < 5; i++ {
		e.np[i] += e.dn[i]
	}
	// Adjust interior markers by at most one position, parabolic first.
	for i := 1; i <= 3; i++ {
		d := e.np[i] - e.n[i]
		if (d >= 1 && e.n[i+1]-e.n[i] > 1) || (d <= -1 && e.n[i-1]-e.n[i] < -1) {
			s := 1.0
			if d < 0 {
				s = -1
			}
			qp := e.q[i] + s/(e.n[i+1]-e.n[i-1])*
				((e.n[i]-e.n[i-1]+s)*(e.q[i+1]-e.q[i])/(e.n[i+1]-e.n[i])+
					(e.n[i+1]-e.n[i]-s)*(e.q[i]-e.q[i-1])/(e.n[i]-e.n[i-1]))
			if e.q[i-1] < qp && qp < e.q[i+1] {
				e.q[i] = qp
			} else {
				// Linear fallback.
				if s > 0 {
					e.q[i] += (e.q[i+1] - e.q[i]) / (e.n[i+1] - e.n[i])
				} else {
					e.q[i] -= (e.q[i-1] - e.q[i]) / (e.n[i-1] - e.n[i])
				}
			}
			e.n[i] += s
		}
	}
}

func (e *p2Quantile) primed() bool { return e.count >= 5 }

func (e *p2Quantile) value() float64 {
	if e.count == 0 {
		return 0
	}
	if e.count < 5 {
		// Highest bootstrap sample approximates a high quantile.
		return e.initBuf[e.count-1]
	}
	return e.q[2]
}

// QuantileBackend forecasts each task's P90 execution time per (task,
// scenario) cell — a tail-aware backend: where the deployed predictor
// tracks the expectation, this one tracks the budget a provisioner would
// reserve. Its per-task error is expected to bias high; the bake-off
// quantifies by how much, and whether its scenario-conditioning pays for
// itself against the global per-task estimator it falls back to.
type QuantileBackend struct {
	p      float64
	cells  [tasks.NumNames][8]p2Quantile
	global [tasks.NumNames]p2Quantile
	table  scenarioTable1
	active *core.ScenarioTaskLists

	last core.Observation
	seen bool
}

// NewQuantileBackend returns an estimator for the given quantile
// (0 < p < 1); p = 0.9 is the bake-off's tail backend.
func NewQuantileBackend(p float64) *QuantileBackend {
	b := &QuantileBackend{p: p, active: core.NewScenarioTaskLists()}
	for ti := 0; ti < tasks.NumNames; ti++ {
		b.global[ti].init(p)
		for si := 0; si < 8; si++ {
			b.cells[ti][si].init(p)
		}
	}
	return b
}

// Name implements core.Backend.
func (b *QuantileBackend) Name() string { return BackendQuantile }

// Observe implements core.Backend.
func (b *QuantileBackend) Observe(obs *core.Observation) {
	si := obs.Scenario.Index()
	if b.seen {
		b.table.add(b.last.Scenario.Index(), si)
	}
	for ti := 0; ti < tasks.NumNames; ti++ {
		if obs.Mask&(1<<uint(ti)) == 0 {
			continue
		}
		b.cells[ti][si].add(obs.Ms[ti])
		b.global[ti].add(obs.Ms[ti])
	}
	b.last = *obs
	b.seen = true
}

// Predict implements core.Backend.
func (b *QuantileBackend) Predict(dst *core.Prediction) {
	*dst = core.Prediction{}
	if !b.seen {
		dst.Scenario = flowgraph.WorstCase()
	} else {
		dst.Scenario = flowgraph.FromIndex(b.table.mostLikely(b.last.Scenario.Index()))
		dst.Scenario.ROIKnown = b.last.EstROIPixels > 0
	}
	si := dst.Scenario.Index()
	for _, ti := range b.active.Lists[si] {
		ms := b.global[ti].value()
		if b.cells[ti][si].primed() {
			ms = b.cells[ti][si].value()
		}
		dst.Ms[ti] = ms
		dst.Mask |= 1 << uint(ti)
		dst.TotalMs += ms
	}
}

// Reset implements core.Backend: the quantile markers are the learned
// state and persist; only the frame history clears.
func (b *QuantileBackend) Reset() {
	b.seen = false
	b.last = core.Observation{}
}

// TrainBackends builds the full bake-off roster from one training corpus:
// the deployed predictor cloned behind BaselineBackend, the order-2
// backend trained on the same sequences, and the ridge and quantile
// backends warm-started by replaying the corpus (Reset between
// sequences, like every other per-sequence trainer here). The baseline is
// always index 0 — the regret reference.
func TrainBackends(deployed *core.Predictor, train [][]core.Observation, _ core.TrainConfig) ([]core.Backend, error) {
	clone, err := deployed.Clone()
	if err != nil {
		return nil, fmt.Errorf("shadow: clone deployed predictor: %w", err)
	}
	order2, err := TrainOrder2Backend(train)
	if err != nil {
		return nil, fmt.Errorf("shadow: train order-2 backend: %w", err)
	}
	ridge := NewRidgeBackend()
	quant := NewQuantileBackend(0.9)
	for _, seq := range train {
		ridge.Reset()
		quant.Reset()
		for i := range seq {
			ridge.Observe(&seq[i])
			quant.Observe(&seq[i])
		}
	}
	ridge.Reset()
	quant.Reset()
	return []core.Backend{core.NewBaselineBackend(clone), order2, ridge, quant}, nil
}
