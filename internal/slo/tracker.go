package slo

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"triplec/internal/metrics"
)

// Config parameterizes a Tracker.
type Config struct {
	// Streams is the fixed stream count (ledger slots). Required.
	Streams int
	// Deadline / Accuracy configure the two tracked SLOs. Zero values
	// take the defaults (objective 0.95 / 0.90, windows 64/512, burn
	// thresholds 8/2).
	Deadline BurnConfig
	Accuracy BurnConfig
}

const (
	// relErrBad is the within-accuracy bound: a frame is accuracy-bad when
	// |actual-predicted|/actual exceeds it (the same within-25% criterion
	// the shadow scoreboard uses).
	relErrBad = 0.25
	// transitionCap bounds the retained alert-transition log (ring, oldest
	// overwritten).
	transitionCap = 256
)

func (c Config) withDefaults() Config {
	if c.Streams < 1 {
		c.Streams = 1
	}
	c.Deadline = c.Deadline.withDefaults(0.95)
	c.Accuracy = c.Accuracy.withDefaults(0.90)
	return c
}

// Transition records one alert-state change, frame-indexed.
type Transition struct {
	Seq   int        `json:"seq"`
	Frame uint64     `json:"frame"` // fleet frame counter at the change
	SLO   SLOKind    `json:"-"`
	From  AlertState `json:"-"`
	To    AlertState `json:"-"`

	// String forms for JSON (stable names, set when snapshotting).
	SLOName  string `json:"slo"`
	FromName string `json:"from"`
	ToName   string `json:"to"`
}

// String renders one stable log line.
func (t Transition) String() string {
	return fmt.Sprintf("[%03d] frame=%-6d slo=%-8s %s -> %s",
		t.Seq, t.Frame, t.SLO, t.From, t.To)
}

// Tracker is the fleet-wide cause ledger + SLO engine. One instance
// serves all streams; ObserveFrame is safe for concurrent use and
// allocation-free.
type Tracker struct {
	cfg Config

	mu          sync.Mutex
	streams     []ledger
	fleet       ledger
	slos        [NumSLOs]*sloState
	frame       uint64 // fleet frame counter (all streams)
	transitions []Transition
	transSeq    int
	transHead   int // ring write position once len == cap
	onTrans     func(Transition)

	// Counters are updated on the frame path without extra allocation;
	// gauges are refreshed by a registry collector at scrape time.
	metricsOn    atomic.Bool
	framesTotal  *metrics.Counter
	badTotal     [NumSLOs]*metrics.Counter
	alertsTotal  [NumSLOs][2]*metrics.Counter // [slo][ticket,page]
	burnGauge    [NumSLOs][2]*metrics.Gauge   // [slo][fast,slow]
	stateGauge   [NumSLOs]*metrics.Gauge
	causeMsG     [][NumCauses]*metrics.Gauge // per stream
	causeFrameG  [][NumCauses]*metrics.Gauge
	fleetMsG     [NumCauses]*metrics.Gauge
	fleetFrameG  [NumCauses]*metrics.Gauge
	streamLabels []string
}

// NewTracker builds a tracker for cfg.Streams streams.
func NewTracker(cfg Config) *Tracker {
	cfg = cfg.withDefaults()
	t := &Tracker{
		cfg:         cfg,
		streams:     make([]ledger, cfg.Streams),
		transitions: make([]Transition, 0, transitionCap),
	}
	t.slos[SLODeadline] = newSLOState(cfg.Deadline)
	t.slos[SLOAccuracy] = newSLOState(cfg.Accuracy)
	return t
}

// SetOnTransition installs a callback fired (under the tracker lock — it
// must not call back in) on every alert-state change.
func (t *Tracker) SetOnTransition(f func(Transition)) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.onTrans = f
	t.mu.Unlock()
}

// ObserveFrame classifies one served frame into the cause ledger and
// feeds both SLOs. Nil-safe, allocation-free, safe for concurrent use.
func (t *Tracker) ObserveFrame(in *FrameInput) {
	if t == nil || in == nil || in.Stream < 0 || in.Stream >= t.cfg.Streams {
		return
	}
	var b Breakdown
	Classify(in, &b)
	missed := in.BudgetMs > 0 && in.LatencyMs > in.BudgetMs
	inaccurate := false
	if in.PredictedMs > 0 && in.LatencyMs > 0 {
		rel := (in.LatencyMs - in.PredictedMs) / in.LatencyMs
		if rel < 0 {
			rel = -rel
		}
		inaccurate = rel > relErrBad
	}

	t.mu.Lock()
	t.frame++
	t.streams[in.Stream].add(&b, missed)
	t.fleet.add(&b, missed)
	t.observeSLOLocked(SLODeadline, missed)
	t.observeSLOLocked(SLOAccuracy, inaccurate)
	t.mu.Unlock()

	if t.metricsOn.Load() {
		t.framesTotal.Inc()
		if missed {
			t.badTotal[SLODeadline].Inc()
		}
		if inaccurate {
			t.badTotal[SLOAccuracy].Inc()
		}
	}
}

func (t *Tracker) observeSLOLocked(k SLOKind, bad bool) {
	from, to, changed := t.slos[k].observe(bad)
	if !changed {
		return
	}
	tr := Transition{Seq: t.transSeq, Frame: t.frame, SLO: k, From: from, To: to}
	t.transSeq++
	if len(t.transitions) < cap(t.transitions) {
		t.transitions = append(t.transitions, tr)
	} else {
		t.transitions[t.transHead] = tr
		t.transHead++
		if t.transHead == len(t.transitions) {
			t.transHead = 0
		}
	}
	if t.metricsOn.Load() {
		switch to {
		case AlertTicket:
			t.alertsTotal[k][0].Inc()
		case AlertPage:
			t.alertsTotal[k][1].Inc()
		}
	}
	if t.onTrans != nil {
		t.onTrans(tr)
	}
}

// EnableMetrics registers the triplec_slo_* families on reg. Counters
// update on the frame path; gauges refresh via a collector at scrape
// time so the hot path stays allocation-free.
func (t *Tracker) EnableMetrics(reg *metrics.Registry, streamLabels []string) error {
	if t == nil || reg == nil {
		return nil
	}
	var err error
	if t.framesTotal, err = reg.NewCounter("triplec_slo_frames_total",
		"Frames observed by the SLO cause ledger."); err != nil {
		return err
	}
	for k := 0; k < NumSLOs; k++ {
		name := sloNames[k]
		if t.badTotal[k], err = reg.NewCounter("triplec_slo_bad_frames_total",
			"Frames violating the SLO.", metrics.L("slo", name)); err != nil {
			return err
		}
		if t.alertsTotal[k][0], err = reg.NewCounter("triplec_slo_alerts_total",
			"Alert-state escalations by severity.",
			metrics.L("slo", name), metrics.L("severity", "ticket")); err != nil {
			return err
		}
		if t.alertsTotal[k][1], err = reg.NewCounter("triplec_slo_alerts_total",
			"Alert-state escalations by severity.",
			metrics.L("slo", name), metrics.L("severity", "page")); err != nil {
			return err
		}
		if t.burnGauge[k][0], err = reg.NewGauge("triplec_slo_burn_rate",
			"Error-budget burn rate per window.",
			metrics.L("slo", name), metrics.L("window", "fast")); err != nil {
			return err
		}
		if t.burnGauge[k][1], err = reg.NewGauge("triplec_slo_burn_rate",
			"Error-budget burn rate per window.",
			metrics.L("slo", name), metrics.L("window", "slow")); err != nil {
			return err
		}
		if t.stateGauge[k], err = reg.NewGauge("triplec_slo_alert_state",
			"Alert state (0=ok 1=ticket 2=page).", metrics.L("slo", name)); err != nil {
			return err
		}
	}
	t.streamLabels = make([]string, t.cfg.Streams)
	t.causeMsG = make([][NumCauses]*metrics.Gauge, t.cfg.Streams)
	t.causeFrameG = make([][NumCauses]*metrics.Gauge, t.cfg.Streams)
	for i := 0; i < t.cfg.Streams; i++ {
		lbl := fmt.Sprintf("stream%d", i)
		if i < len(streamLabels) && streamLabels[i] != "" {
			lbl = streamLabels[i]
		}
		t.streamLabels[i] = lbl
		for c := 0; c < NumCauses; c++ {
			if t.causeMsG[i][c], err = reg.NewGauge("triplec_slo_cause_ms",
				"Cumulative latency milliseconds attributed to a cause.",
				metrics.L("stream", lbl), metrics.L("cause", causeNames[c])); err != nil {
				return err
			}
			if t.causeFrameG[i][c], err = reg.NewGauge("triplec_slo_cause_frames",
				"Frames whose latency overage a cause dominated.",
				metrics.L("stream", lbl), metrics.L("cause", causeNames[c])); err != nil {
				return err
			}
		}
	}
	for c := 0; c < NumCauses; c++ {
		if t.fleetMsG[c], err = reg.NewGauge("triplec_slo_cause_ms",
			"Cumulative latency milliseconds attributed to a cause.",
			metrics.L("stream", "fleet"), metrics.L("cause", causeNames[c])); err != nil {
			return err
		}
		if t.fleetFrameG[c], err = reg.NewGauge("triplec_slo_cause_frames",
			"Frames whose latency overage a cause dominated.",
			metrics.L("stream", "fleet"), metrics.L("cause", causeNames[c])); err != nil {
			return err
		}
	}
	reg.RegisterCollector(t.collect)
	t.metricsOn.Store(true)
	return nil
}

// collect refreshes the gauges from the ledger at scrape time. Runs
// outside the registry lock.
func (t *Tracker) collect() {
	t.mu.Lock()
	defer t.mu.Unlock()
	for k := 0; k < NumSLOs; k++ {
		s := t.slos[k]
		t.burnGauge[k][0].Set(s.fastBurn())
		t.burnGauge[k][1].Set(s.slowBurn())
		t.stateGauge[k].Set(float64(s.state))
	}
	for i := range t.streams {
		for c := 0; c < NumCauses; c++ {
			t.causeMsG[i][c].Set(t.streams[i].causeMs[c])
			t.causeFrameG[i][c].Set(float64(t.streams[i].causeFrames[c]))
		}
	}
	for c := 0; c < NumCauses; c++ {
		t.fleetMsG[c].Set(t.fleet.causeMs[c])
		t.fleetFrameG[c].Set(float64(t.fleet.causeFrames[c]))
	}
}

// CauseStat is one cause's share of a ledger, for reports and /healthz.
type CauseStat struct {
	Cause     string  `json:"cause"`
	Ms        float64 `json:"ms"`
	MsShare   float64 `json:"ms_share"`
	Frames    uint64  `json:"frames"`
	OverMs    float64 `json:"-"`
	OverShare float64 `json:"over_share"`
}

// SLOStatus is one SLO's live state, for reports and /healthz.
type SLOStatus struct {
	SLO        string  `json:"slo"`
	Objective  float64 `json:"objective"`
	State      string  `json:"state"`
	FastBurn   float64 `json:"fast_burn"`
	SlowBurn   float64 `json:"slow_burn"`
	FastWindow int     `json:"fast_window"`
	SlowWindow int     `json:"slow_window"`
	PageBurn   float64 `json:"page_burn"`
	TicketBurn float64 `json:"ticket_burn"`
	BadFrames  uint64  `json:"bad_frames"`
	GoodFrames uint64  `json:"good_frames"`
	Pages      uint64  `json:"pages"`
	Tickets    uint64  `json:"tickets"`
}

// StreamCauses is one stream's ledger snapshot.
type StreamCauses struct {
	Stream string      `json:"stream"`
	Frames uint64      `json:"frames"`
	Missed uint64      `json:"missed"`
	OverMs float64     `json:"over_ms"`
	Causes []CauseStat `json:"causes"`
}

// Status is the full tracker snapshot, embedded in /healthz and the
// `triplec slo` report.
type Status struct {
	Frame       uint64         `json:"frame"`
	SLOs        []SLOStatus    `json:"slos"`
	Fleet       StreamCauses   `json:"fleet"`
	Streams     []StreamCauses `json:"streams,omitempty"`
	Transitions []Transition   `json:"transitions,omitempty"`
}

// roundMs / roundShare quantize reported values (µs / 1e-9) so that
// snapshots of two identical replays are byte-identical: the engine's
// parallel task-time reduction folds floats in goroutine order, which
// leaves last-ulp jitter in accumulated sums.
func roundMs(v float64) float64    { return math.Round(v*1e6) / 1e6 }
func roundShare(v float64) float64 { return math.Round(v*1e9) / 1e9 }

func (t *Tracker) causesLocked(label string, l *ledger) StreamCauses {
	sc := StreamCauses{
		Stream: label,
		Frames: l.frames,
		Missed: l.missed,
		OverMs: roundMs(l.overSum),
		Causes: make([]CauseStat, 0, NumCauses),
	}
	totalMs := l.latencySum
	var overFrames uint64
	for c := 0; c < NumCauses; c++ {
		overFrames += l.causeFrames[c]
	}
	for c := 0; c < NumCauses; c++ {
		st := CauseStat{
			Cause:  causeNames[c],
			Ms:     roundMs(l.causeMs[c]),
			Frames: l.causeFrames[c],
		}
		if totalMs > 0 {
			st.MsShare = roundShare(l.causeMs[c] / totalMs)
		}
		if overFrames > 0 {
			st.OverShare = roundShare(float64(l.causeFrames[c]) / float64(overFrames))
		}
		sc.Causes = append(sc.Causes, st)
	}
	return sc
}

// Status snapshots the tracker. perStream additionally includes every
// stream's ledger and the retained transition log.
func (t *Tracker) Status(perStream bool) *Status {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	st := &Status{Frame: t.frame, SLOs: make([]SLOStatus, 0, NumSLOs)}
	for k := 0; k < NumSLOs; k++ {
		s := t.slos[k]
		st.SLOs = append(st.SLOs, SLOStatus{
			SLO:        sloNames[k],
			Objective:  s.cfg.Objective,
			State:      s.state.String(),
			FastBurn:   s.fastBurn(),
			SlowBurn:   s.slowBurn(),
			FastWindow: fastWindow,
			SlowWindow: slowWindow,
			PageBurn:   pageBurn,
			TicketBurn: ticketBurn,
			BadFrames:  s.bad,
			GoodFrames: s.good,
			Pages:      s.pages,
			Tickets:    s.tix,
		})
	}
	st.Fleet = t.causesLocked("fleet", &t.fleet)
	if perStream {
		st.Streams = make([]StreamCauses, 0, len(t.streams))
		for i := range t.streams {
			lbl := fmt.Sprintf("stream%d", i)
			if i < len(t.streamLabels) && t.streamLabels[i] != "" {
				lbl = t.streamLabels[i]
			}
			st.Streams = append(st.Streams, t.causesLocked(lbl, &t.streams[i]))
		}
		st.Transitions = t.transitionsLocked()
	}
	return st
}

func (t *Tracker) transitionsLocked() []Transition {
	out := make([]Transition, 0, len(t.transitions))
	for i := 0; i < len(t.transitions); i++ {
		tr := t.transitions[(t.transHead+i)%len(t.transitions)]
		tr.SLOName = tr.SLO.String()
		tr.FromName = tr.From.String()
		tr.ToName = tr.To.String()
		out = append(out, tr)
	}
	return out
}
