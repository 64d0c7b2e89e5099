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
	"math/bits"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Backend names, stable across reports, metrics labels and CI floors.
const (
	BackendOrder2   = "order2-markov"
	BackendRidge    = "ridge-online"
	BackendQuantile = "quantile-p90"
)

// order2Model is the per-task model of the order-2 backend: the same
// long-term trend carriers as the paper's Table 2(b) (EWMA level, or the
// Eq. 3 growth line for RDG ROI, or a constant) with the short-term
// residual predicted by a second-order chain over the last TWO residuals.
type order2Model struct {
	filter   *core.Filter       // EWMA trend (nil when growth or constant)
	growth   *core.LinearGrowth // Eq. 3 trend (nil unless RDG ROI)
	chain    *core.Chain2       // nil for constant tasks
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
		pred += m.chain.ExpectedNext(m.r2, m.r1)
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
			m.chain.AddTransition(m.r2, m.r1, r)
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
	table  *core.TransitionTable // order 2 over the scenario indices, counted online
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
	b := &Order2Backend{table: core.NewTransitionTable(8, 2), active: core.NewScenarioTaskLists()}
	for _, seq := range sequences {
		for i := 1; i < len(seq); i++ {
			if i >= 2 {
				b.table.Add2(seq[i-2].Scenario.Index(), seq[i-1].Scenario.Index(), seq[i].Scenario.Index())
			} else {
				b.table.Add(seq[0].Scenario.Index(), seq[1].Scenario.Index())
			}
		}
	}
	c := core.GroupCorpus(sequences)

	// EWMA-trended tasks: residual series → order-2 chain.
	for ti, series := range c.Series {
		residualSets, all, err := core.DecomposeSeries(series, core.Alpha)
		if err != nil {
			return nil, err
		}
		if len(all) == 0 {
			continue
		}
		m := &order2Model{constant: stats.Mean(all)}
		if f, err := core.NewFilter(core.Alpha); err == nil {
			m.filter = f
		}
		if c2, err := core.TrainOrder2(residualSets, core.MaxStates); err == nil {
			m.chain = c2
		}
		b.models[ti] = m
	}
	// RDG ROI: growth trend plus an order-2 chain over the detrended
	// residuals (the paper shares the RDG chain; here the ROI task gets its
	// own second-order view of the same residual stream).
	if len(c.ROIX) >= 2 {
		if g, err := core.FitLinearGrowth(c.ROIX, c.ROIY); err == nil {
			m := &order2Model{growth: &g, constant: stats.Mean(c.ROIY)}
			if detrended, err := g.Detrend(c.ROIX, c.ROIY); err == nil && len(detrended) >= 3 {
				if c2, err := core.TrainOrder2([][]float64{detrended}, core.MaxStates); err == nil {
					m.chain = c2
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
		b.table.Add2(b.lastIdx[0], b.lastIdx[1], si)
	} else if b.seen == 1 {
		b.table.Add(b.lastIdx[1], si)
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
		dst.Scenario = flowgraph.FromIndex(b.table.MostLikely(b.lastIdx[1]))
	default:
		dst.Scenario = flowgraph.FromIndex(b.table.MostLikely2(b.lastIdx[0], b.lastIdx[1]))
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

// rlsMaxDiag bounds the covariance: an update whose largest diagonal entry
// already exceeds it skips the 1/λ inflation, so forgetting stops there.
// The bias feature always equals the sum of the scenario one-hot, so one
// direction of P is never excited, and neither are the scenarios a stream
// never visits; unbounded, they grow by 1/λ per update until P·x loses its
// precision and, after ~46k updates at λ = 0.995, turns NaN. Over 80k
// frames of a served 32² stream the total forecast erred by 1.4 % on
// average (on scenario hits) at 1e11 and 1e12, and by more from 1e13 up;
// the goldens stay below 3e10.
const rlsMaxDiag = 1e12

// rlsCov is the covariance half of a recursive-least-squares regression
// with forgetting: the inverse-covariance estimate P and the gain of its
// last update. The recursion reads only the features, never the target, so
// every task updated on the same frames holds the same P bit for bit and
// shares one rlsCov.
//
// Only the excited block is stored and updated: the coordinates the
// features have ever been non-zero on. The others keep exact-zero rows and
// columns and one common diagonal, idle. The terms the block skips are
// exact zeros while P is finite (rlsMaxDiag keeps it finite), so the
// result equals the dense 11×11 recursion.
type rlsCov struct {
	p    [ridgeDim * ridgeDim]float64 // excited block of P; zero elsewhere
	idle float64                      // diagonal of the never-excited coordinates
	exc  [ridgeDim]int                // excited coordinates, ascending: exc[:nexc]
	nexc int
	mask uint16 // the excited coordinates as a bit set
	// scratch of the update: px = P·x and the gain kv = px / (λ + xᵀ·P·x),
	// set on the excited coordinates.
	px, kv [ridgeDim]float64
}

// rlsTask is one task's half: weights, and the running mean that predicts
// until the regression has support.
type rlsTask struct {
	w     [ridgeDim]float64
	count int
	mean  float64
}

// rlsMinSamples gates the regression: below it the running mean predicts.
const rlsMinSamples = 8

// rlsPrior is P's initial diagonal (diffuse prior).
const rlsPrior = 1e4

func (s *rlsTask) predict(x *[ridgeDim]float64) float64 {
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

// update performs one RLS step of P with forgetting factor lambda and
// leaves the gain in c.kv for the tasks' weight updates.
func (c *rlsCov) update(x *[ridgeDim]float64, lambda float64) {
	var nz [ridgeDim]int
	nnz := 0
	c.nexc = 0
	for i := 0; i < ridgeDim; i++ {
		if x[i] != 0 {
			nz[nnz] = i
			nnz++
			if c.mask&(1<<i) == 0 {
				// Newly excited: its row and column are zero, its diagonal idle.
				c.mask |= 1 << i
				c.p[i*ridgeDim+i] = c.idle
			}
		}
		if c.mask&(1<<i) != 0 {
			c.exc[c.nexc] = i
			c.nexc++
		}
	}
	exc := c.exc[:c.nexc]
	maxDiag := 0.0
	if c.nexc < ridgeDim {
		maxDiag = c.idle
	}
	for _, i := range exc {
		maxDiag = max(maxDiag, c.p[i*ridgeDim+i])
	}
	// px = P·x ; denom = λ + xᵀ·P·x
	denom := lambda
	for _, i := range exc {
		v := 0.0
		for _, j := range nz[:nnz] {
			v += c.p[i*ridgeDim+j] * x[j]
		}
		c.px[i] = v
		denom += v * x[i]
	}
	for _, i := range exc {
		c.kv[i] = c.px[i] / denom
	}
	// P = (P − k·(xᵀP)) / λ ; xᵀP = pxᵀ (P symmetric). Past the ceiling
	// the division by λ is skipped.
	for _, i := range exc {
		row := c.p[i*ridgeDim : i*ridgeDim+ridgeDim]
		for _, j := range exc {
			row[j] -= c.kv[i] * c.px[j]
		}
	}
	if maxDiag > rlsMaxDiag {
		return
	}
	for _, i := range exc {
		row := c.p[i*ridgeDim : i*ridgeDim+ridgeDim]
		for _, j := range exc {
			row[j] /= lambda
		}
	}
	c.idle /= lambda
}

// update folds one sample into the task's weights with the gain of the
// covariance update just made on x.
func (s *rlsTask) update(c *rlsCov, x *[ridgeDim]float64, y float64) {
	s.count++
	s.mean += (y - s.mean) / float64(s.count)
	// w += k (y − wᵀx)
	e := y
	exc := c.exc[:c.nexc]
	for _, i := range exc {
		e -= s.w[i] * x[i]
	}
	for _, i := range exc {
		s.w[i] += c.kv[i] * e
	}
}

// RidgeBackend predicts each task's time by online ridge regression
// (recursive least squares with forgetting) on frame features — region
// size, region fraction and the scenario one-hot — instead of time-series
// structure. Scenarios come from its own online first-order table.
type RidgeBackend struct {
	reg [tasks.NumNames]rlsTask
	// The tasks are partitioned into groups that have run on the same
	// frames, each sharing one covariance: cov[g] for the tasks in
	// members[g], g < groups. All tasks start in one group; a group that
	// runs only in part splits.
	cov     [tasks.NumNames]rlsCov
	members [tasks.NumNames]uint16
	groups  int
	// table is order 1 over the scenario indices. Unlike the deployed
	// predictor's state table, frozen after training, the backends' tables
	// keep counting live transitions: online scenario learning is one of
	// the hypotheses the bake-off exists to score.
	table  *core.TransitionTable
	active *core.ScenarioTaskLists
	lambda float64

	feat core.Observation // last frame, for next-frame features
	seen bool
	x    [ridgeDim]float64 // scratch feature vector
}

// NewRidgeBackend returns an untrained backend; warm-start it by replaying
// a corpus (TrainBackends does) so early frames are not pure fallback.
func NewRidgeBackend() *RidgeBackend {
	b := &RidgeBackend{table: core.NewTransitionTable(8, 1), active: core.NewScenarioTaskLists(), lambda: 0.995}
	b.cov[0].idle = rlsPrior
	b.members[0] = 1<<tasks.NumNames - 1
	b.groups = 1
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
		b.table.Add(b.feat.Scenario.Index(), si)
	}
	b.features(obs.AnalysisPixels, obs.FramePixels, si)
	for g, n := 0, b.groups; g < n; g++ {
		ran := b.members[g] & obs.Mask
		if ran == 0 {
			continue
		}
		c := &b.cov[g]
		if ran != b.members[g] {
			// Only some of the group ran: they leave with a copy of its
			// covariance.
			b.members[g] &^= ran
			b.cov[b.groups], b.members[b.groups] = *c, ran
			c = &b.cov[b.groups]
			b.groups++
		}
		c.update(&b.x, b.lambda)
		for ; ran != 0; ran &= ran - 1 {
			ti := bits.TrailingZeros16(ran)
			b.reg[ti].update(c, &b.x, obs.Ms[ti])
		}
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
		dst.Scenario = flowgraph.FromIndex(b.table.MostLikely(b.feat.Scenario.Index()))
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
	cells  [tasks.NumNames][8]p2Quantile
	global [tasks.NumNames]p2Quantile
	table  *core.TransitionTable // as RidgeBackend's
	active *core.ScenarioTaskLists

	last core.Observation
	seen bool
}

// NewQuantileBackend returns an estimator for the given quantile
// (0 < p < 1); p = 0.9 is the bake-off's tail backend.
func NewQuantileBackend(p float64) *QuantileBackend {
	b := &QuantileBackend{table: core.NewTransitionTable(8, 1), active: core.NewScenarioTaskLists()}
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
		b.table.Add(b.last.Scenario.Index(), si)
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
		dst.Scenario = flowgraph.FromIndex(b.table.MostLikely(b.last.Scenario.Index()))
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
