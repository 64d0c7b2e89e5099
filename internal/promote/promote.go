// Package promote is the guarded switchover controller that lets a shadow
// bake-off winner actually steer the scheduler. It watches every stream's
// shadow.Board rolling regret; when a challenger backend beats the deployed
// baseline for BeatFrames consecutive scored frames (or a named challenger
// is configured), it promotes the challenger through a staged canary —
// first steering a configurable fraction of streams, deterministically by
// stream index, then fleet-wide — while continuously enforcing guardrail
// SLOs over sliding 64-frame windows: deadline-miss rate on the canary
// streams, within-25% forecast accuracy, signed bias, and scenario hit
// rate. Any breach rolls every steered manager back to the baseline with a
// single atomic swap (effective at the very next Plan, i.e. well inside one
// rebalance interval), applies an exponentially growing cooldown, and after
// three strikes quarantines the backend for the rest of the run. Every move is
// an explicit state-machine transition — Shadow → Canary → Promoted →
// RolledBack/Quarantined — stamped into span events, flight-recorder dump
// metadata, /healthz and the triplec_promote_* metric families.
package promote

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sync"

	"triplec/internal/core"
	"triplec/internal/metrics"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/span"
	"triplec/internal/stats"
)

// State is a promotion state-machine position. The values mirror the
// span.Promote* constants so events and metrics share one enum.
type State int32

// The promotion states.
const (
	StateShadow      = State(span.PromoteShadow)
	StateCanary      = State(span.PromoteCanary)
	StatePromoted    = State(span.PromotePromoted)
	StateRolledBack  = State(span.PromoteRolledBack)
	StateQuarantined = State(span.PromoteQuarantined)
)

// String renders the state the way span, /healthz and the transition log do.
func (s State) String() string { return span.PromoteStateName(int32(s)) }

// ParseState is the inverse of State.String, for CLI -expect flags.
func ParseState(s string) (State, error) {
	for st := StateShadow; st <= StateQuarantined; st++ {
		if st.String() == s {
			return st, nil
		}
	}
	return 0, fmt.Errorf("promote: unknown state %q", s)
}

// guardWindow is the sliding-window length of every guardrail SLO, matching
// the shadow board's rolling regret window and the serving layer's rolling
// miss window.
const guardWindow = stats.BitWindowSize

// The canary schedule.
const (
	// canaryFrames is how many fleet scored frames the canary must survive
	// with clean guardrails before fleet-wide promotion.
	canaryFrames = guardWindow
	// minSamples is the minimum window occupancy before a guardrail can
	// breach, so a single early frame cannot trip it.
	minSamples = 16
	// cooldownFrames is the post-rollback cooldown before the same backend
	// may re-enter a canary; it doubles per strike on that backend.
	cooldownFrames = 128
	// maxCooldownFrames caps the exponential rollback cooldown.
	maxCooldownFrames = 1 << 20
)

// The guardrail bars no deployment tunes. The forecast-quality floors apply
// in fixed mode; AdaptiveGuards derives them from the baseline instead.
const (
	minAccuracy = 0.40 // rolling within-25% forecast-accuracy floor of the steering backend
	maxAbsBias  = 0.50 // bound on |mean signed relative error| over the window
	minHitRate  = 0.40 // rolling scenario-hit-rate floor
	maxStrikes  = 3    // rollbacks after which a backend is quarantined for the run

	// adaptiveWindows is how many trailing 64-frame baseline windows the
	// adaptive thresholds are computed over, and adaptiveMargin how far a
	// baseline percentile p is widened before it becomes a threshold:
	// p ± max(adaptiveMargin·p, 0.05).
	adaptiveWindows = 8
	adaptiveMargin  = 0.25
)

// Config tunes the controller. The zero value of any field takes the
// documented default.
type Config struct {
	// Challenger selects the promotion policy: "" (or "auto") promotes any
	// backend whose rolling regret beats the baseline for BeatFrames
	// consecutive frames; a backend name canaries that backend directly at
	// the first scored frame.
	Challenger string
	// BeatFrames is how many consecutive scored frames a challenger's
	// rolling regret must stay negative before auto-promotion (default 32).
	BeatFrames int
	// CanaryFrac is the fraction of streams steered during the canary stage
	// (default 0.25; at least one stream is always steered).
	CanaryFrac float64
	// MaxMissRate is the rolling deadline-miss-rate guard over steered
	// streams' served frames (default 0.25).
	MaxMissRate float64
	// AdaptiveGuards derives the miss-rate, accuracy, bias and hit-rate
	// bars from the deployed baseline's own trailing windows instead of
	// MaxMissRate and the fixed floors: the guard tracks scene difficulty,
	// so a hard sequence is not mistaken for a challenger regression.
	// While the baseline history is still warming up (fewer than two
	// folded windows), canary entry waits.
	AdaptiveGuards bool
}

func (c Config) withDefaults() Config {
	if c.Challenger == "auto" {
		c.Challenger = ""
	}
	if c.BeatFrames <= 0 {
		c.BeatFrames = 32
	}
	if c.CanaryFrac <= 0 || math.IsNaN(c.CanaryFrac) {
		c.CanaryFrac = 0.25
	}
	if c.CanaryFrac > 1 {
		c.CanaryFrac = 1
	}
	if c.MaxMissRate <= 0 || math.IsNaN(c.MaxMissRate) {
		c.MaxMissRate = 0.25
	}
	return c
}

// Transition is one state-machine move, in occurrence order.
type Transition struct {
	Seq     int    `json:"seq"`
	Frame   uint64 `json:"frame"` // fleet scored-frame count at the move
	From    State  `json:"-"`
	To      State  `json:"-"`
	FromS   string `json:"from"`
	ToS     string `json:"to"`
	Backend string `json:"backend"` // challenger involved ("-" for none)
	Reason  string `json:"reason"`
}

// String renders the stable transition-log line (byte-identical across
// runs with the same inputs — no wall-clock anywhere).
func (t Transition) String() string {
	return fmt.Sprintf("[%03d] frame=%-6d %-11s -> %-11s backend=%-16s %s",
		t.Seq, t.Frame, t.From, t.To, t.Backend, t.Reason)
}

// meanWindow is a 64-sample sliding mean with a running sum.
type meanWindow struct {
	vals [guardWindow]float64
	idx  int
	n    int
	sum  float64
}

func (w *meanWindow) push(v float64) {
	w.sum -= w.vals[w.idx]
	w.vals[w.idx] = v
	w.sum += v
	w.idx = (w.idx + 1) % guardWindow
	if w.n < guardWindow {
		w.n++
	}
}

func (w *meanWindow) mean() float64 {
	if w.n == 0 {
		return 0
	}
	return w.sum / float64(w.n)
}

func (w *meanWindow) reset() { *w = meanWindow{} }

// statRing keeps the last adaptiveWindows folded baseline-window statistics
// and answers percentile queries over them. Push and percentile are
// allocation-free (the sort scratch is a stack array).
type statRing struct {
	vals [adaptiveWindows]float64
	idx  int
	n    int
}

func (r *statRing) push(v float64) {
	r.vals[r.idx] = v
	r.idx = (r.idx + 1) % adaptiveWindows
	if r.n < adaptiveWindows {
		r.n++
	}
}

// percentile returns the q-quantile (0 ≤ q ≤ 1) of the ring's contents by
// linear interpolation between order statistics, 0 when empty.
func (r *statRing) percentile(q float64) float64 {
	if r.n == 0 {
		return 0
	}
	var buf [adaptiveWindows]float64
	copy(buf[:r.n], r.vals[:r.n])
	for i := 1; i < r.n; i++ {
		v := buf[i]
		j := i - 1
		for j >= 0 && buf[j] > v {
			buf[j+1] = buf[j]
			j--
		}
		buf[j+1] = v
	}
	pos := q * float64(r.n-1)
	lo := int(pos)
	if lo >= r.n-1 {
		return buf[r.n-1]
	}
	frac := pos - float64(lo)
	return buf[lo] + (buf[lo+1]-buf[lo])*frac
}

// attached is one stream under the controller's watch.
type attached struct {
	board   *shadow.Board
	mgr     *sched.Manager
	steered bool
}

// instruments is the optional triplec_promote_* family set.
type instruments struct {
	state       *metrics.Gauge
	canary      *metrics.Gauge
	transitions *metrics.Counter
	promotions  *metrics.Counter
	rollbacks   *metrics.Counter
	quarantines *metrics.Counter
	strikes     []*metrics.Counter // per roster slot (nil for slot 0)
}

// Controller is the fleet-level guarded switchover state machine. One
// controller serves one stream.Server; attach every stream before serving
// starts. The per-frame observation paths are allocation-free.
type Controller struct {
	cfg Config

	mu      sync.Mutex
	streams []attached
	names   []string // roster names, slot order (0 = baseline)
	named   int      // fixed challenger slot, -1 for auto

	state         State
	challenger    int // roster slot being canaried/promoted, -1 when none
	frame         uint64
	stateFrame    uint64
	cooldownUntil uint64

	streak      []int    // per slot: consecutive frames of negative rolling regret
	strikes     []int    // per slot: rollbacks so far
	quarantined []bool   // per slot: out for the rest of the run
	cooldown    []uint64 // per slot: next cooldown length (doubles per strike)

	missWin stats.BitWindow // served deadline misses on steered streams
	accWin  stats.BitWindow // challenger within-25% forecasts
	hitWin  stats.BitWindow // challenger scenario hits
	biasWin meanWindow      // challenger signed relative error

	// Adaptive-guard baseline history (AdaptiveGuards only): unsteered
	// served frames and the baseline slot's forecast scores feed trailing
	// 64-frame windows, which fold into K-deep stat rings the derived
	// thresholds are computed from.
	baseMissWin stats.BitWindow
	baseAccWin  stats.BitWindow
	baseHitWin  stats.BitWindow
	baseBiasWin meanWindow
	baseServed  int // unsteered served frames since the last miss fold
	baseScored  int // baseline scored frames since the last score fold
	missHist    statRing
	accHist     statRing
	biasHist    statRing
	hitHist     statRing

	log          []Transition
	onTransition func(Transition)
	rec          *span.Recorder
	inst         *instruments
}

// NewController builds a controller. AttachStream must be called for every
// stream (in stream-index order) before frames flow.
func NewController(cfg Config) (*Controller, error) {
	cfg = cfg.withDefaults()
	if cfg.Challenger == core.BackendBaseline {
		return nil, fmt.Errorf("promote: challenger %q is the deployed baseline — nothing to promote", cfg.Challenger)
	}
	return &Controller{cfg: cfg, named: -1, challenger: -1, state: StateShadow}, nil
}

// AttachStream registers one stream's shadow board and manager. Stream
// index is attach order and must match the serving layer's stream index
// (stream.NewServer attaches in order). The first attach fixes the roster.
func (c *Controller) AttachStream(name string, board *shadow.Board, mgr *sched.Manager) error {
	if board == nil || mgr == nil {
		return errors.New("promote: attach needs a shadow board and a manager")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	names := board.BackendNames()
	if c.streams == nil {
		c.names = names
		if len(names) > shadow.MaxBackends {
			return fmt.Errorf("promote: roster of %d exceeds the %d scored slots", len(names), shadow.MaxBackends)
		}
		c.streak = make([]int, len(names))
		c.strikes = make([]int, len(names))
		c.quarantined = make([]bool, len(names))
		c.cooldown = make([]uint64, len(names))
		if c.cfg.Challenger != "" {
			slot := board.SlotOf(c.cfg.Challenger)
			if slot <= 0 {
				return fmt.Errorf("promote: challenger %q not on the shadow roster %v", c.cfg.Challenger, names)
			}
			c.named = slot
		}
	} else {
		if len(names) != len(c.names) {
			return fmt.Errorf("promote: stream %q roster size %d != %d", name, len(names), len(c.names))
		}
		for i := range names {
			if names[i] != c.names[i] {
				return fmt.Errorf("promote: stream %q roster %v differs from %v", name, names, c.names)
			}
		}
	}
	i := len(c.streams)
	c.streams = append(c.streams, attached{board: board, mgr: mgr})
	board.SetObserver(func(fs *shadow.FrameScore) { c.observeScores(i, fs) })
	return nil
}

// Rewire swaps in a rebuilt manager for stream i (supervisor restarts
// replace the engine+manager pair) and re-applies steering. Nil-safe.
func (c *Controller) Rewire(i int, mgr *sched.Manager) {
	if c == nil || mgr == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.streams) {
		return
	}
	st := &c.streams[i]
	st.mgr = mgr
	if st.steered && c.challenger > 0 {
		mgr.SetDemandSource(st.board.Steer(c.challenger))
	}
}

// SetSpanRecorder routes transitions into span events and keeps the
// recorder's promotion meta label current. Nil-safe.
func (c *Controller) SetSpanRecorder(rec *span.Recorder) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.rec = rec
	rec.SetPromotion(c.labelLocked())
	c.mu.Unlock()
}

// SetOnTransition installs a transition callback (the replay harness's log
// writer). It runs under the controller lock: it must not call back in.
func (c *Controller) SetOnTransition(fn func(Transition)) {
	c.mu.Lock()
	c.onTransition = fn
	c.mu.Unlock()
}

// EnableMetrics registers the triplec_promote_* families. Call after every
// AttachStream so the per-backend strike counters know the roster.
func (c *Controller) EnableMetrics(r *metrics.Registry) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.names == nil {
		return errors.New("promote: EnableMetrics needs at least one attached stream")
	}
	inst := &instruments{}
	var err error
	if inst.state, err = r.NewGauge("triplec_promote_state",
		"Promotion state machine position: 0 shadow, 1 canary, 2 promoted, 3 rolled-back, 4 quarantined."); err != nil {
		return err
	}
	if inst.canary, err = r.NewGauge("triplec_promote_canary_streams",
		"Streams currently steered by the challenger backend."); err != nil {
		return err
	}
	if inst.transitions, err = r.NewCounter("triplec_promote_transitions_total",
		"Promotion state-machine transitions."); err != nil {
		return err
	}
	if inst.promotions, err = r.NewCounter("triplec_promote_promotions_total",
		"Canary or fleet-wide promotions granted."); err != nil {
		return err
	}
	if inst.rollbacks, err = r.NewCounter("triplec_promote_rollbacks_total",
		"Guardrail-triggered rollbacks to the deployed baseline."); err != nil {
		return err
	}
	if inst.quarantines, err = r.NewCounter("triplec_promote_quarantines_total",
		"Backends quarantined after repeated rollbacks."); err != nil {
		return err
	}
	inst.strikes = make([]*metrics.Counter, len(c.names))
	for s := 1; s < len(c.names); s++ {
		if inst.strikes[s], err = r.NewCounter("triplec_promote_strikes_total",
			"Rollback strikes against this backend.", metrics.L("backend", c.names[s])); err != nil {
			return err
		}
	}
	inst.state.Set(float64(c.state))
	c.inst = inst
	return nil
}

// observeScores is the board observer: it runs under the board lock (board
// → controller lock order; the controller never locks a board) once per
// scored frame on any stream. Allocation-free outside transitions.
func (c *Controller) observeScores(stream int, fs *shadow.FrameScore) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.frame++
	n := fs.N
	if n > len(c.streak) {
		n = len(c.streak)
	}
	for s := 1; s < n; s++ {
		sc := &fs.Scores[s]
		if c.quarantined[s] || sc.Skipped {
			c.streak[s] = 0
			continue
		}
		if sc.RollN >= minSamples && sc.RollRegretMs < 0 {
			c.streak[s]++
		} else {
			c.streak[s] = 0
		}
	}
	if c.cfg.AdaptiveGuards && n > 0 {
		sc0 := &fs.Scores[0]
		if sc0.RelOK {
			c.baseAccWin.Push(sc0.Within25)
			c.baseBiasWin.push(sc0.SignedRel)
		}
		c.baseHitWin.Push(sc0.ScenarioHit)
		c.baseScored++
		if c.baseScored%guardWindow == 0 {
			if acc, n := c.baseAccWin.Rate(); n > 0 {
				c.accHist.push(acc)
				c.biasHist.push(math.Abs(c.baseBiasWin.mean()))
			}
			if hit, n := c.baseHitWin.Rate(); n > 0 {
				c.hitHist.push(hit)
			}
		}
	}
	if (c.state == StateCanary || c.state == StatePromoted) &&
		c.challenger > 0 && c.challenger < n && c.steeredLocked(stream) {
		sc := &fs.Scores[c.challenger]
		switch {
		case sc.Quarantined:
			c.rollbackLocked("challenger quarantined by the shadow board (repeated panics)")
			return
		case sc.Panicked:
			c.rollbackLocked("challenger panicked while forecasting")
			return
		}
		if sc.RelOK {
			c.accWin.Push(sc.Within25)
			c.biasWin.push(sc.SignedRel)
		}
		c.hitWin.Push(sc.ScenarioHit)
	}
	c.stepLocked()
}

// ObserveServed feeds one served frame's deadline verdict from the serving
// loop. Only steered streams' frames count toward the miss-rate guard.
// Nil-safe and allocation-free.
func (c *Controller) ObserveServed(stream int, missed bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	steered := (c.state == StateCanary || c.state == StatePromoted) && c.steeredLocked(stream)
	if c.cfg.AdaptiveGuards && !steered {
		// Baseline-served frame: its deadline verdict calibrates the
		// adaptive miss-rate guard.
		c.baseMissWin.Push(missed)
		c.baseServed++
		if c.baseServed%guardWindow == 0 { // never reset, so the window is full here
			miss, _ := c.baseMissWin.Rate()
			c.missHist.push(miss)
		}
	}
	if !steered {
		return
	}
	c.missWin.Push(missed)
	c.checkGuardrailsLocked()
}

func (c *Controller) steeredLocked(stream int) bool {
	return stream >= 0 && stream < len(c.streams) && c.streams[stream].steered
}

func (c *Controller) stepLocked() {
	switch c.state {
	case StateShadow:
		if c.frame < c.cooldownUntil {
			return
		}
		cand := -1
		reason := ""
		if c.named > 0 {
			if !c.quarantined[c.named] {
				cand = c.named
				reason = "named challenger; canarying directly"
			}
		} else {
			for s := 1; s < len(c.streak); s++ {
				if c.quarantined[s] {
					continue
				}
				if c.streak[s] >= c.cfg.BeatFrames {
					cand = s
					reason = fmt.Sprintf("rolling regret negative for %d consecutive frames", c.streak[s])
					break
				}
			}
		}
		if cand > 0 {
			if c.cfg.AdaptiveGuards && !c.guardsLocked().Ready {
				// Adaptive mode: hold the canary until the baseline
				// history can supply derived thresholds.
				return
			}
			c.promoteCanaryLocked(cand, reason)
		}
	case StateCanary:
		if c.checkGuardrailsLocked() {
			return
		}
		if c.frame-c.stateFrame >= uint64(canaryFrames) {
			c.promoteFleetLocked()
		}
	case StatePromoted:
		c.checkGuardrailsLocked()
	case StateRolledBack, StateQuarantined:
		if c.frame < c.cooldownUntil || !c.hasCandidateLocked() {
			return
		}
		c.transitionLocked(StateShadow, c.challenger, "cooldown expired; back to watching shadow regret")
		c.challenger = -1
	}
}

func (c *Controller) hasCandidateLocked() bool {
	if c.named > 0 {
		return !c.quarantined[c.named]
	}
	for s := 1; s < len(c.quarantined); s++ {
		if !c.quarantined[s] {
			return true
		}
	}
	return false
}

// isCanaryStream spreads k canaries over n streams evenly and
// deterministically by index (Bresenham): stream i is a canary iff the
// rounded cumulative share advances at i.
func isCanaryStream(i, k, n int) bool {
	return (i+1)*k/n > i*k/n
}

func (c *Controller) promoteCanaryLocked(slot int, reason string) {
	c.challenger = slot
	n := len(c.streams)
	k := int(math.Ceil(c.cfg.CanaryFrac * float64(n)))
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	for i := range c.streams {
		c.streams[i].steered = isCanaryStream(i, k, n)
	}
	c.applySteerLocked()
	c.resetWindowsLocked()
	msg := fmt.Sprintf("%s; steering %d/%d streams", reason, k, n)
	if c.cfg.AdaptiveGuards {
		g := c.guardsLocked()
		msg += fmt.Sprintf("; adaptive guards over %d baseline windows: miss<=%.3f acc>=%.3f |bias|<=%.3f hit>=%.3f",
			g.Windows, g.MaxMissRate, g.MinAccuracy, g.MaxAbsBias, g.MinHitRate)
	}
	c.transitionLocked(StateCanary, slot, msg)
}

func (c *Controller) promoteFleetLocked() {
	for i := range c.streams {
		c.streams[i].steered = true
	}
	c.applySteerLocked()
	c.transitionLocked(StatePromoted, c.challenger,
		fmt.Sprintf("canary clean for %d frames; steering all %d streams", canaryFrames, len(c.streams)))
}

// applySteerLocked makes every manager's demand source match the steered
// flags: one atomic swap per manager, effective at its next Plan.
func (c *Controller) applySteerLocked() {
	for i := range c.streams {
		st := &c.streams[i]
		if st.steered && c.challenger > 0 {
			st.mgr.SetDemandSource(st.board.Steer(c.challenger))
		} else {
			st.mgr.SetDemandSource(nil)
		}
	}
}

func (c *Controller) resetWindowsLocked() {
	c.missWin.Reset()
	c.accWin.Reset()
	c.hitWin.Reset()
	c.biasWin.reset()
}

// guardVals is the effective guardrail threshold set: Config.MaxMissRate and
// the fixed floors in fixed mode, the baseline-derived values in adaptive
// mode once the history is deep enough.
type guardVals struct {
	MaxMissRate float64
	MinAccuracy float64
	MaxAbsBias  float64
	MinHitRate  float64
	Adaptive    bool
	Ready       bool // derived values active (always true in fixed mode)
	Windows     int  // folded baseline windows backing the derivation
}

// guardsLocked computes the effective thresholds. In adaptive mode the
// breach bars sit one widened percentile beyond the baseline's own trailing
// behaviour: p95 of per-window miss rate / |bias| on the high side, p5 of
// accuracy / hit rate on the low side, each pushed out by
// max(adaptiveMargin·p, 0.05) so a challenger is only ever punished for
// being clearly worse than the baseline on comparable scenes.
func (c *Controller) guardsLocked() guardVals {
	g := guardVals{
		MaxMissRate: c.cfg.MaxMissRate,
		MinAccuracy: minAccuracy,
		MaxAbsBias:  maxAbsBias,
		MinHitRate:  minHitRate,
		Adaptive:    c.cfg.AdaptiveGuards,
		Ready:       true,
	}
	if !c.cfg.AdaptiveGuards {
		return g
	}
	g.Windows = c.missHist.n
	if c.accHist.n < g.Windows {
		g.Windows = c.accHist.n
	}
	if c.hitHist.n < g.Windows {
		g.Windows = c.hitHist.n
	}
	if g.Windows < 2 {
		g.Ready = false
		return g
	}
	widen := func(p float64) float64 {
		w := adaptiveMargin * p
		if w < 0.05 {
			w = 0.05
		}
		return w
	}
	p95miss := c.missHist.percentile(0.95)
	g.MaxMissRate = p95miss + widen(p95miss)
	if g.MaxMissRate < 0.10 {
		g.MaxMissRate = 0.10 // floor: one stray miss in a thin window is not a breach
	}
	if g.MaxMissRate > 0.95 {
		g.MaxMissRate = 0.95
	}
	p5acc := c.accHist.percentile(0.05)
	g.MinAccuracy = p5acc - widen(p5acc)
	if g.MinAccuracy < 0 {
		g.MinAccuracy = 0
	}
	p95bias := c.biasHist.percentile(0.95)
	g.MaxAbsBias = p95bias + widen(p95bias)
	if g.MaxAbsBias < 0.10 {
		g.MaxAbsBias = 0.10
	}
	p5hit := c.hitHist.percentile(0.05)
	g.MinHitRate = p5hit - widen(p5hit)
	if g.MinHitRate < 0 {
		g.MinHitRate = 0
	}
	return g
}

// checkGuardrailsLocked enforces the SLOs; returns true when it rolled
// back. Checks run in a fixed order so two runs over the same frames
// produce identical transition reasons.
func (c *Controller) checkGuardrailsLocked() bool {
	if c.state != StateCanary && c.state != StatePromoted {
		return false
	}
	g := c.guardsLocked()
	tag := ""
	if g.Adaptive {
		tag = " (baseline-derived)"
	}
	if r, n := c.missWin.Rate(); n >= minSamples && r > g.MaxMissRate {
		c.rollbackLocked(fmt.Sprintf("deadline-miss rate %.3f > %.3f%s over %d frames", r, g.MaxMissRate, tag, n))
		return true
	}
	if a, n := c.accWin.Rate(); n >= minSamples && a < g.MinAccuracy {
		c.rollbackLocked(fmt.Sprintf("within-25%% accuracy %.3f < %.3f%s over %d frames", a, g.MinAccuracy, tag, n))
		return true
	}
	if c.biasWin.n >= minSamples {
		if b := c.biasWin.mean(); math.Abs(b) > g.MaxAbsBias {
			c.rollbackLocked(fmt.Sprintf("signed bias %+.3f exceeds ±%.3f%s over %d frames", b, g.MaxAbsBias, tag, c.biasWin.n))
			return true
		}
	}
	if h, n := c.hitWin.Rate(); n >= minSamples && h < g.MinHitRate {
		c.rollbackLocked(fmt.Sprintf("scenario hit rate %.3f < %.3f%s over %d frames", h, g.MinHitRate, tag, n))
		return true
	}
	return false
}

func (c *Controller) rollbackLocked(reason string) {
	slot := c.challenger
	for i := range c.streams {
		c.streams[i].steered = false
	}
	c.applySteerLocked() // every manager plans from the baseline at its next frame
	cd := c.cooldown[slot]
	if cd == 0 {
		cd = cooldownFrames
	}
	c.cooldownUntil = c.frame + cd
	if next := cd * 2; next <= maxCooldownFrames {
		c.cooldown[slot] = next
	} else {
		c.cooldown[slot] = maxCooldownFrames
	}
	c.strikes[slot]++
	c.resetWindowsLocked()
	for s := range c.streak {
		c.streak[s] = 0
	}
	if c.inst != nil && c.inst.strikes[slot] != nil {
		c.inst.strikes[slot].Inc()
	}
	if c.strikes[slot] >= maxStrikes {
		c.quarantined[slot] = true
		c.transitionLocked(StateQuarantined, slot,
			fmt.Sprintf("%s; strike %d/%d — backend quarantined for the run", reason, c.strikes[slot], maxStrikes))
		return
	}
	c.transitionLocked(StateRolledBack, slot,
		fmt.Sprintf("%s; strike %d/%d, cooldown %d frames", reason, c.strikes[slot], maxStrikes, cd))
}

func (c *Controller) slotNameLocked(slot int) string {
	if slot > 0 && slot < len(c.names) {
		return c.names[slot]
	}
	return "-"
}

// labelLocked renders the compact position label stamped into span meta
// and flight-recorder dumps.
func (c *Controller) labelLocked() string {
	if c.challenger > 0 && c.state != StateShadow {
		return c.state.String() + ":" + c.slotNameLocked(c.challenger)
	}
	return c.state.String()
}

func (c *Controller) transitionLocked(to State, slot int, reason string) {
	t := Transition{
		Seq:     len(c.log),
		Frame:   c.frame,
		From:    c.state,
		To:      to,
		FromS:   c.state.String(),
		ToS:     to.String(),
		Backend: c.slotNameLocked(slot),
		Reason:  reason,
	}
	c.log = append(c.log, t)
	c.state = to
	c.stateFrame = c.frame
	if c.inst != nil {
		c.inst.state.Set(float64(to))
		c.inst.transitions.Inc()
		c.inst.canary.Set(float64(c.steeredCountLocked()))
		switch to {
		case StateCanary, StatePromoted:
			c.inst.promotions.Inc()
		case StateRolledBack:
			c.inst.rollbacks.Inc()
		case StateQuarantined:
			c.inst.rollbacks.Inc()
			c.inst.quarantines.Inc()
		}
	}
	if c.rec != nil {
		c.rec.Emit(span.Event{
			Kind: span.KindPromote, Stream: -1, Frame: -1, Task: -1, Scenario: -1,
			Outcome: int32(to), Arg0: float64(t.From), Arg1: float64(slot),
		})
		c.rec.SetPromotion(c.labelLocked())
	}
	if c.onTransition != nil {
		c.onTransition(t)
	}
}

func (c *Controller) steeredCountLocked() int {
	n := 0
	for i := range c.streams {
		if c.streams[i].steered {
			n++
		}
	}
	return n
}

// GuardWindow is a point-in-time view of the guardrail windows.
type GuardWindow struct {
	MissRate    float64 `json:"miss_rate"`
	MissSamples int     `json:"miss_samples"`
	Accuracy    float64 `json:"accuracy"`
	AccSamples  int     `json:"acc_samples"`
	Bias        float64 `json:"bias"`
	BiasSamples int     `json:"bias_samples"`
	HitRate     float64 `json:"hit_rate"`
	HitSamples  int     `json:"hit_samples"`
}

// GuardThresholds is the effective guardrail bar set surfaced in /healthz:
// the configured constants in fixed mode, the baseline-derived values in
// adaptive mode.
type GuardThresholds struct {
	MaxMissRate float64 `json:"max_miss_rate"`
	MinAccuracy float64 `json:"min_accuracy"`
	MaxAbsBias  float64 `json:"max_abs_bias"`
	MinHitRate  float64 `json:"min_hit_rate"`
	Ready       bool    `json:"ready"`
	Windows     int     `json:"windows,omitempty"` // folded baseline windows behind the derivation
}

// Status is the /healthz view of the controller.
type Status struct {
	State         string          `json:"state"`
	Label         string          `json:"label"`
	Challenger    string          `json:"challenger,omitempty"`
	CanaryStreams int             `json:"canary_streams"`
	Frame         uint64          `json:"frame"`
	Transitions   int             `json:"transitions"`
	CooldownLeft  uint64          `json:"cooldown_left,omitempty"`
	Strikes       map[string]int  `json:"strikes,omitempty"`
	Window        GuardWindow     `json:"window"`
	GuardMode     string          `json:"guard_mode"`
	Guards        GuardThresholds `json:"guards"`
}

// Status snapshots the controller for /healthz. Allocates; keep it off the
// frame path.
func (c *Controller) Status() Status {
	c.mu.Lock()
	defer c.mu.Unlock()
	st := Status{
		State:         c.state.String(),
		Label:         c.labelLocked(),
		CanaryStreams: c.steeredCountLocked(),
		Frame:         c.frame,
		Transitions:   len(c.log),
		Window:        GuardWindow{Bias: c.biasWin.mean(), BiasSamples: c.biasWin.n},
	}
	st.Window.MissRate, st.Window.MissSamples = c.missWin.Rate()
	st.Window.Accuracy, st.Window.AccSamples = c.accWin.Rate()
	st.Window.HitRate, st.Window.HitSamples = c.hitWin.Rate()
	g := c.guardsLocked()
	st.GuardMode = "fixed"
	if g.Adaptive {
		st.GuardMode = "adaptive"
	}
	st.Guards = GuardThresholds{
		MaxMissRate: g.MaxMissRate,
		MinAccuracy: g.MinAccuracy,
		MaxAbsBias:  g.MaxAbsBias,
		MinHitRate:  g.MinHitRate,
		Ready:       g.Ready,
		Windows:     g.Windows,
	}
	if c.challenger > 0 {
		st.Challenger = c.slotNameLocked(c.challenger)
	}
	if c.cooldownUntil > c.frame {
		st.CooldownLeft = c.cooldownUntil - c.frame
	}
	for s := 1; s < len(c.strikes); s++ {
		if c.strikes[s] > 0 {
			if st.Strikes == nil {
				st.Strikes = map[string]int{}
			}
			st.Strikes[c.names[s]] = c.strikes[s]
		}
	}
	return st
}

// State returns the current state-machine position.
func (c *Controller) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// StreamPredictor reports which backend steers stream i's plans right now
// — the challenger on steered streams in Canary/Promoted, the deployed
// baseline otherwise. Nil-safe (nil controller = baseline).
func (c *Controller) StreamPredictor(i int) string {
	if c == nil {
		return core.BackendBaseline
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if (c.state == StateCanary || c.state == StatePromoted) && c.steeredLocked(i) {
		return c.slotNameLocked(c.challenger)
	}
	if len(c.names) > 0 {
		return c.names[0]
	}
	return core.BackendBaseline
}

// Transitions returns a copy of the transition log.
func (c *Controller) Transitions() []Transition {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Transition, len(c.log))
	copy(out, c.log)
	return out
}

// WriteLog renders the transition log, one stable line per transition.
func (c *Controller) WriteLog(w io.Writer) error {
	for _, t := range c.Transitions() {
		if _, err := fmt.Fprintln(w, t.String()); err != nil {
			return err
		}
	}
	return nil
}
