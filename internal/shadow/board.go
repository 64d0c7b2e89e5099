package shadow

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/metrics"
	"triplec/internal/tasks"
)

// scenarioLabel renders the stable human label for a scenario index.
func scenarioLabel(si int) string { return flowgraph.FromIndex(si).String() }

// cell accumulates one error distribution: a (backend, scenario, task)
// coordinate of the scoreboard, with the total-ms column as a tenth
// pseudo-task.
type cell struct {
	count                   uint64
	within                  uint64
	sumAbsRel, sumSignedRel float64
	maxAbsRel               float64
	sumAbsMs                float64
}

// accurateRelErr is the tolerance under which a forecast counts as
// accurate: the Accuracy() scalar is the fraction of samples inside it,
// which stays meaningful when rare scenario-miss frames blow up the mean.
const accurateRelErr = 0.25

func (c *cell) add(rel, absMs float64) {
	c.count++
	a := math.Abs(rel)
	if a <= accurateRelErr {
		c.within++
	}
	c.sumAbsRel += a
	c.sumSignedRel += rel
	if a > c.maxAbsRel {
		c.maxAbsRel = a
	}
	c.sumAbsMs += absMs
}

// totalCol is the cells column index carrying the whole-frame total.
const totalCol = tasks.NumNames

// MaxBackends bounds the roster a FrameScore can carry. Boards accept more
// backends, but only the first MaxBackends get per-frame scores reported to
// the observer (the promotion controller); the roster is four today.
const MaxBackends = 8

// regretWindow is the length of the per-backend rolling regret window the
// promotion controller watches: a challenger must beat the deployed
// baseline over this many recent frames, not merely cumulatively.
const regretWindow = 64

// panicStrikes is how many recovered Observe/Predict panics quarantine a
// backend from the roster for the rest of the run.
const panicStrikes = 3

// backendInstruments is the optional per-backend Prometheus family set.
type backendInstruments struct {
	hits, misses *metrics.Counter
	degenerate   *metrics.Counter
	panics       *metrics.Counter
	totalRelErr  *metrics.Histogram
	absErrMs     *metrics.Histogram
	regretMs     *metrics.Gauge
}

// backendState is one raced backend plus everything scored against it.
type backendState struct {
	backend core.Backend
	name    string
	pred    core.Prediction
	// predValid marks the standing forecast usable: false until the first
	// successful drive after construction/reset, and false again after a
	// recovered panic left it stale.
	predValid bool

	cells        [8][tasks.NumNames + 1]cell // indexed by ACTUAL scenario
	hits, misses uint64
	degenerate   uint64
	regretMs     float64 // cumulative |total err| − |baseline total err|

	// Rolling regret over the last regretWindow scored frames (ring with a
	// running sum, so reads are O(1) on the frame path).
	regretWin    [regretWindow]float64
	regretIdx    int
	regretN      int
	regretWinSum float64

	panics      uint64 // recovered Observe/Predict panics
	quarantined bool   // dropped from the roster after panicStrikes

	inst *backendInstruments
}

// Board races a set of backends over one live observation stream. Each
// ObserveFrame scores every backend's previous forecast against the
// actuals, then lets every backend observe and re-predict — strictly
// read-only with respect to scheduling, and allocation-free once
// constructed. All methods are safe for concurrent use; the serving loop
// is the single writer in practice.
type Board struct {
	mu       sync.Mutex
	stream   string
	backends []*backendState

	warmup     int // frames after a reset whose forecasts are not scored
	warmupLeft int
	observed   uint64 // frames fed
	scored     uint64 // frames that contributed to the distributions
	havePred   bool

	frames *metrics.Counter // optional triplec_shadow_frames_total

	observer func(*FrameScore) // optional per-scored-frame hook
	scoreBuf FrameScore        // reused scratch handed to the observer
}

// BackendFrameScore is one backend's verdict for a single scored frame,
// reported through the board observer. Skipped entries (panicked or
// quarantined backends) carry no error numbers.
type BackendFrameScore struct {
	SignedRel    float64 // signed relative total error (valid iff RelOK)
	RelOK        bool    // the relative error was well-defined
	Within25     bool    // RelOK and |SignedRel| ≤ 0.25
	ScenarioHit  bool    // predicted the frame's scenario
	RollRegretMs float64 // rolling regret sum over the last RollN frames
	RollN        int     // samples in the rolling regret window (≤ 64)
	Panicked     bool    // forecast invalid: the backend panicked while driving
	Quarantined  bool    // backend removed from the roster
	Skipped      bool    // no scoring happened for this backend this frame
}

// FrameScore is the per-frame scoring summary handed to the board
// observer, in backend registration order (slot 0 = deployed baseline).
type FrameScore struct {
	N      int // populated entries in Scores
	Scores [MaxBackends]BackendFrameScore
}

// SetObserver installs a hook invoked after every scored frame with that
// frame's per-backend verdicts. The hook runs under the board lock with a
// reused buffer: it must not call back into the board and must not retain
// the *FrameScore past its return. Pass nil to remove.
func (b *Board) SetObserver(fn func(*FrameScore)) {
	b.mu.Lock()
	b.observer = fn
	b.mu.Unlock()
}

// NewBoard builds a scoreboard over the given backends. Index 0 is the
// regret reference (conventionally the deployed baseline); at least two
// backends make a race. Backend names must be unique.
func NewBoard(stream string, backends []core.Backend) (*Board, error) {
	if len(backends) < 2 {
		return nil, errors.New("shadow: a bake-off needs at least two backends")
	}
	b := &Board{stream: stream}
	seen := map[string]bool{}
	for _, be := range backends {
		name := be.Name()
		if seen[name] {
			return nil, fmt.Errorf("shadow: duplicate backend name %q", name)
		}
		seen[name] = true
		b.backends = append(b.backends, &backendState{backend: be, name: name})
	}
	return b, nil
}

// Stream returns the stream label the board was built for.
func (b *Board) Stream() string { return b.stream }

// Deployed returns the regret-reference backend's name.
func (b *Board) Deployed() string { return b.backends[0].name }

// SetWarmup sets how many forecasts after each reset go unscored (they
// still train the backends). Applies from the next ResetSequence.
func (b *Board) SetWarmup(n int) {
	b.mu.Lock()
	b.warmup = n
	b.warmupLeft = n
	b.mu.Unlock()
}

// EnableMetrics registers the per-backend Prometheus families on the
// registry: hit/miss and degenerate counters, signed total relative-error
// and absolute-error histograms, and the cumulative regret gauge, all
// labelled {backend, stream}.
func (b *Board) EnableMetrics(r *metrics.Registry) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	sl := metrics.L("stream", b.stream)
	var err error
	b.frames, err = r.NewCounter("triplec_shadow_frames_total",
		"Frames scored by the shadow bake-off.", sl)
	if err != nil {
		return err
	}
	for _, st := range b.backends {
		bl := metrics.L("backend", st.name)
		inst := &backendInstruments{}
		if inst.hits, err = r.NewCounter("triplec_shadow_scenario_hit_total",
			"Frames whose scenario this shadow backend predicted correctly.", bl, sl); err != nil {
			return err
		}
		if inst.misses, err = r.NewCounter("triplec_shadow_scenario_miss_total",
			"Frames whose scenario this shadow backend mispredicted.", bl, sl); err != nil {
			return err
		}
		if inst.degenerate, err = r.NewCounter("triplec_shadow_degenerate_samples_total",
			"Shadow prediction samples dropped as degenerate (actual ≈ 0 or non-finite).", bl, sl); err != nil {
			return err
		}
		if inst.panics, err = r.NewCounter("triplec_shadow_backend_panics_total",
			"Recovered panics while driving this shadow backend; 3 strikes quarantine it from the roster.", bl, sl); err != nil {
			return err
		}
		if inst.totalRelErr, err = r.NewHistogram("triplec_shadow_total_rel_error",
			"Signed relative error of the backend's total-ms forecast.",
			metrics.DefaultSignedErrorBuckets(), bl, sl); err != nil {
			return err
		}
		if inst.absErrMs, err = r.NewHistogram("triplec_shadow_abs_error_ms",
			"Absolute error of the backend's total-ms forecast.",
			metrics.DefaultLatencyBucketsMs(), bl, sl); err != nil {
			return err
		}
		if inst.regretMs, err = r.NewGauge("triplec_shadow_regret_ms",
			"Cumulative |total error| minus the deployed baseline's — positive means worse than deployed.", bl, sl); err != nil {
			return err
		}
		st.inst = inst
	}
	return nil
}

// ObserveFrame feeds one executed frame: score every backend's standing
// forecast against it, then observe and re-predict. Allocation-free.
func (b *Board) ObserveFrame(obs *core.Observation) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.havePred {
		if b.warmupLeft > 0 {
			b.warmupLeft--
		} else {
			b.score(obs)
		}
	}
	for _, st := range b.backends {
		if st.quarantined {
			continue
		}
		if drive(st, obs) {
			st.predValid = true
			continue
		}
		// The backend panicked mid-drive: its standing forecast is stale or
		// half-written, so the next scored frame counts as a scenario miss
		// for this backend only and its error cells are skipped.
		st.predValid = false
		st.panics++
		if st.inst != nil {
			st.inst.panics.Inc()
		}
		if st.panics >= panicStrikes {
			st.quarantined = true
		}
	}
	b.havePred = true
	b.observed++
}

// drive runs one backend's observe/re-predict step, converting a panic in
// either into a false return so one broken backend cannot take down the
// serving loop or the rest of the roster.
func drive(st *backendState, obs *core.Observation) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	st.backend.Observe(obs)
	st.backend.Predict(&st.pred)
	return true
}

func (b *Board) score(obs *core.Observation) {
	si := obs.Scenario.Index()
	fs := &b.scoreBuf
	*fs = FrameScore{}
	fs.N = len(b.backends)
	if fs.N > MaxBackends {
		fs.N = MaxBackends
	}
	baseAbs := math.NaN()
	if st0 := b.backends[0]; !st0.quarantined && st0.predValid {
		baseAbs = math.Abs(st0.pred.TotalMs - obs.TotalMs)
	}
	for bi, st := range b.backends {
		var sc *BackendFrameScore
		if bi < MaxBackends {
			sc = &fs.Scores[bi]
		}
		if st.quarantined {
			if sc != nil {
				sc.Quarantined = true
				sc.Skipped = true
			}
			continue
		}
		if !st.predValid {
			// A panic left this backend without a forecast: the frame scores
			// as a scenario miss for it and nothing else.
			st.misses++
			if st.inst != nil {
				st.inst.misses.Inc()
			}
			if sc != nil {
				sc.Panicked = true
				sc.Skipped = true
			}
			continue
		}
		p := &st.pred
		hit := p.Scenario == obs.Scenario
		if hit {
			st.hits++
			if st.inst != nil {
				st.inst.hits.Inc()
			}
		} else {
			st.misses++
			if st.inst != nil {
				st.inst.misses.Inc()
			}
		}
		absMs := math.Abs(p.TotalMs - obs.TotalMs)
		rel, relOK := metrics.SignedRelErr(p.TotalMs, obs.TotalMs)
		if relOK {
			st.cells[si][totalCol].add(rel, absMs)
			if st.inst != nil {
				st.inst.totalRelErr.Observe(rel)
				st.inst.absErrMs.Observe(absMs)
			}
		} else {
			st.degenerate++
			if st.inst != nil {
				st.inst.degenerate.Inc()
			}
		}
		for ti := 0; ti < tasks.NumNames; ti++ {
			bit := uint16(1) << uint(ti)
			if obs.Mask&bit == 0 || p.Mask&bit == 0 {
				continue
			}
			if trel, ok := metrics.SignedRelErr(p.Ms[ti], obs.Ms[ti]); ok {
				st.cells[si][ti].add(trel, math.Abs(p.Ms[ti]-obs.Ms[ti]))
			} else {
				st.degenerate++
				if st.inst != nil {
					st.inst.degenerate.Inc()
				}
			}
		}
		regret := math.NaN()
		if !math.IsNaN(absMs) && !math.IsInf(absMs, 0) &&
			!math.IsNaN(baseAbs) && !math.IsInf(baseAbs, 0) {
			regret = absMs - baseAbs
			st.regretMs += regret
			if st.inst != nil {
				st.inst.regretMs.Set(st.regretMs)
			}
			st.regretWinSum -= st.regretWin[st.regretIdx]
			st.regretWin[st.regretIdx] = regret
			st.regretWinSum += regret
			st.regretIdx = (st.regretIdx + 1) % regretWindow
			if st.regretN < regretWindow {
				st.regretN++
			}
		}
		if sc != nil {
			sc.SignedRel = rel
			sc.RelOK = relOK
			sc.Within25 = relOK && math.Abs(rel) <= accurateRelErr
			sc.ScenarioHit = hit
			sc.RollRegretMs = st.regretWinSum
			sc.RollN = st.regretN
		}
	}
	b.scored++
	if b.frames != nil {
		b.frames.Inc()
	}
	if b.observer != nil {
		b.observer(fs)
	}
}

// ResetSequence clears per-sequence online state on every backend and
// drops the standing forecasts — sequence boundaries must not be scored
// as transitions. The next warmup forecasts go unscored.
func (b *Board) ResetSequence() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, st := range b.backends {
		if st.quarantined {
			continue
		}
		resetBackend(st)
	}
	b.havePred = false
	b.warmupLeft = b.warmup
}

// resetBackend clears one backend's per-sequence state, recovering (and
// striking) a panic in Reset the same way drive does for Observe/Predict.
func resetBackend(st *backendState) {
	defer func() {
		if recover() != nil {
			st.panics++
			if st.inst != nil {
				st.inst.panics.Inc()
			}
			if st.panics >= panicStrikes {
				st.quarantined = true
			}
		}
	}()
	st.pred = core.Prediction{}
	st.predValid = false
	st.backend.Reset()
}

// CellStats summarizes one error distribution for snapshots and reports.
// Means are derivable from the sums; both are kept so fold aggregation
// can merge snapshots without revisiting the raw frames.
type CellStats struct {
	Count uint64 `json:"count"`
	// Within25 counts samples whose |relative error| ≤ 0.25.
	Within25      uint64  `json:"within25"`
	MeanAbsRel    float64 `json:"meanAbsRel"`
	MeanSignedRel float64 `json:"meanSignedRel"`
	MaxAbsRel     float64 `json:"maxAbsRel"`
	MeanAbsMs     float64 `json:"meanAbsMs"`
}

func (c *cell) stats() CellStats {
	s := CellStats{Count: c.count, Within25: c.within, MaxAbsRel: c.maxAbsRel}
	if c.count > 0 {
		n := float64(c.count)
		s.MeanAbsRel = c.sumAbsRel / n
		s.MeanSignedRel = c.sumSignedRel / n
		s.MeanAbsMs = c.sumAbsMs / n
	}
	return s
}

// merge folds other into s as a weighted combination.
func (s *CellStats) merge(o CellStats) {
	if o.Count == 0 {
		return
	}
	n, m := float64(s.Count), float64(o.Count)
	s.MeanAbsRel = (s.MeanAbsRel*n + o.MeanAbsRel*m) / (n + m)
	s.MeanSignedRel = (s.MeanSignedRel*n + o.MeanSignedRel*m) / (n + m)
	s.MeanAbsMs = (s.MeanAbsMs*n + o.MeanAbsMs*m) / (n + m)
	if o.MaxAbsRel > s.MaxAbsRel {
		s.MaxAbsRel = o.MaxAbsRel
	}
	s.Count += o.Count
	s.Within25 += o.Within25
}

// ScenarioStats is one scenario's total-ms error distribution.
type ScenarioStats struct {
	Index    int       `json:"index"`
	Scenario string    `json:"scenario"`
	Total    CellStats `json:"total"`
}

// TaskStats is one task's error distribution across scenarios.
type TaskStats struct {
	Task  string    `json:"task"`
	Stats CellStats `json:"stats"`
}

// BackendSnapshot is one backend's scoreboard state.
type BackendSnapshot struct {
	Name            string          `json:"name"`
	ScenarioHits    uint64          `json:"scenarioHits"`
	ScenarioMisses  uint64          `json:"scenarioMisses"`
	ScenarioHitRate float64         `json:"scenarioHitRate"`
	Degenerate      uint64          `json:"degenerateSamples"`
	RegretMs        float64         `json:"regretMs"`
	RollingRegretMs float64         `json:"rollingRegretMs"`
	RollingRegretN  int             `json:"rollingRegretN"`
	Panics          uint64          `json:"panics,omitempty"`
	Quarantined     bool            `json:"quarantined,omitempty"`
	Total           CellStats       `json:"total"`
	Scenarios       []ScenarioStats `json:"scenarios,omitempty"`
	Tasks           []TaskStats     `json:"tasks,omitempty"`
}

// Accuracy returns the fraction of scored frames whose total-ms forecast
// landed within 25% of the actual — the scalar the CI floor gates on. A
// tolerance fraction is robust where 1 − mean|rel| is not: the rare
// scenario-miss frames carry relative errors of several hundred percent
// and would let a handful of misses erase an otherwise tight backend.
func (s *BackendSnapshot) Accuracy() float64 {
	if s.Total.Count == 0 {
		return 0
	}
	return float64(s.Total.Within25) / float64(s.Total.Count)
}

// BoardSnapshot is a point-in-time copy of a board's scoreboard, in
// backend registration order (index 0 = regret reference).
type BoardSnapshot struct {
	Stream         string            `json:"stream"`
	Deployed       string            `json:"deployed"`
	FramesObserved uint64            `json:"framesObserved"`
	FramesScored   uint64            `json:"framesScored"`
	Backends       []BackendSnapshot `json:"backends"`
}

// Snapshot copies the scoreboard. Fine to call concurrently with
// ObserveFrame; it allocates, so keep it off the frame path.
func (b *Board) Snapshot() BoardSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := BoardSnapshot{
		Stream:         b.stream,
		Deployed:       b.backends[0].name,
		FramesObserved: b.observed,
		FramesScored:   b.scored,
	}
	taskNames := tasks.AllNames()
	for _, st := range b.backends {
		bs := BackendSnapshot{
			Name:            st.name,
			ScenarioHits:    st.hits,
			ScenarioMisses:  st.misses,
			Degenerate:      st.degenerate,
			RegretMs:        st.regretMs,
			RollingRegretMs: st.regretWinSum,
			RollingRegretN:  st.regretN,
			Panics:          st.panics,
			Quarantined:     st.quarantined,
		}
		if total := st.hits + st.misses; total > 0 {
			bs.ScenarioHitRate = float64(st.hits) / float64(total)
		}
		for si := 0; si < 8; si++ {
			c := &st.cells[si][totalCol]
			if c.count > 0 {
				bs.Scenarios = append(bs.Scenarios, ScenarioStats{
					Index:    si,
					Scenario: scenarioLabel(si),
					Total:    c.stats(),
				})
				bs.Total.merge(c.stats())
			}
		}
		for ti := 0; ti < tasks.NumNames; ti++ {
			var agg CellStats
			for si := 0; si < 8; si++ {
				if st.cells[si][ti].count > 0 {
					agg.merge(st.cells[si][ti].stats())
				}
			}
			if agg.Count > 0 {
				bs.Tasks = append(bs.Tasks, TaskStats{Task: string(taskNames[ti]), Stats: agg})
			}
		}
		out.Backends = append(out.Backends, bs)
	}
	return out
}
