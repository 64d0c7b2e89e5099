// Package slo is the serving stack's "why was this frame slow" layer: a
// zero-allocation per-frame cause ledger that decomposes each served
// frame's latency into attributable causes, and a multi-window,
// multi-burn-rate SLO engine (Google-SRE style paging vs. ticket burn
// rates over frame-indexed windows) whose alert states drive the
// triplec_slo_* metric families, the /healthz slo block and /debug/sloz.
//
// The paper's premise is that predicted resource usage drives scheduling;
// once it does, "was the frame slow" (the latency histograms of PR 3)
// stops being the interesting question. What operators — and the
// promotion controller — need is *which mechanism* spent the frame's
// budget: the task compute itself, core arbitration shedding, a scenario
// (mode) misprediction forcing a replan, a rebalance stall, the quality
// ladder, fault recovery, or pipelining drain. The ledger answers that at
// frame-commit time by folding the facts the serving loop already has
// (controller directive, span-sink scenario verdict, degrader rung,
// pipeline report, fault bookkeeping) into an exact decomposition:
//
//   - min(latency, predicted) ms are charged to CauseCompute — the frame
//     would have cost that much even with a perfect plan;
//   - any known injected fault time (deterministic replays) is charged to
//     CauseFault next;
//   - the remaining overage is charged whole to the highest-priority
//     cause present on the frame (fault recovery > scenario miss >
//     rebalance > core wait > degrade > drain), falling back to
//     CauseCompute when nothing else explains it.
//
// The charge is exact by construction: the per-cause milliseconds of one
// frame always sum to that frame's measured latency.
package slo

import "math"

// Cause is one latency-attribution class.
type Cause uint8

// The cause classes, in metric-label order.
const (
	// CauseCompute is modeled task computation: the latency a perfect
	// plan would still have paid, plus unexplained overage.
	CauseCompute Cause = iota
	// CauseCoreWait is core arbitration: the controller forced the frame
	// serial (or onto a borrowed core) because the stream's predicted
	// need exceeded its allocation.
	CauseCoreWait
	// CauseScenarioMiss is a mode misprediction: the Markov forecast
	// named a different scenario than the one that executed, so the plan
	// was sized for the wrong task set.
	CauseScenarioMiss
	// CauseRebalance is a cross-stream core re-division landing on this
	// frame: the plan ran against a stale core budget.
	CauseRebalance
	// CauseDegrade is the quality ladder: the frame ran on a degraded
	// rung (or was forced serial by one).
	CauseDegrade
	// CauseFault is fault handling: injected fault time, or the first
	// frame after a task panic / watchdog abandonment / restart.
	CauseFault
	// CauseDrain is pipelining drain: latency spent flushing the
	// software-pipelined stages rather than computing this frame.
	CauseDrain

	// NumCauses is the number of cause classes.
	NumCauses = int(CauseDrain) + 1
)

// causeNames are the stable metric-label / report names.
var causeNames = [NumCauses]string{
	"compute", "core-wait", "scenario-miss", "rebalance", "degrade", "fault", "drain",
}

// String returns the cause's stable label name (allocation-free).
func (c Cause) String() string {
	if int(c) < NumCauses {
		return causeNames[c]
	}
	return "unknown"
}

// FrameInput is everything the serving loop knows about one served frame
// at commit time. The caller owns it (stack or reused scratch); the
// tracker copies what it needs and never retains the pointer.
type FrameInput struct {
	Stream      int
	Frame       int
	LatencyMs   float64 // measured (modeled) frame latency, spikes included
	PredictedMs float64 // planned latency (0 when no plan existed)
	BudgetMs    float64 // frame deadline (0 = no deadline yet)

	// Cause flags, filled from the serving loop's per-frame facts.
	ScenarioMiss bool // predictor named a different scenario than executed
	CoreWait     bool // controller forced serial / borrowed-core mode
	Rebalanced   bool // a core re-division landed since the last frame
	Degraded     bool // frame ran below full quality
	FaultRecover bool // first served frame after a panic/abandon/restart
	Drain        bool // pipelining drain frame

	// FaultMs is known injected fault latency contained in LatencyMs
	// (deterministic replays overlay spikes; live serving leaves it 0).
	FaultMs float64
}

// Breakdown is one frame's exact per-cause decomposition plus the
// dominant overage cause.
type Breakdown struct {
	Ms       [NumCauses]float64
	Dominant Cause // cause charged with the overage (CauseCompute if none)
	OverMs   float64
}

// Classify decomposes one frame's latency into per-cause milliseconds.
// The decomposition is exact: sum(b.Ms) == in.LatencyMs (the test pins
// this to 1e-6). Allocation-free.
func Classify(in *FrameInput, b *Breakdown) {
	*b = Breakdown{}
	lat := in.LatencyMs
	if math.IsNaN(lat) || math.IsInf(lat, 0) || lat < 0 {
		return
	}
	base := lat
	if in.PredictedMs > 0 && in.PredictedMs < lat {
		base = in.PredictedMs
	}
	b.Ms[CauseCompute] = base
	over := lat - base
	if over <= 0 {
		return
	}
	b.OverMs = over
	if f := in.FaultMs; f > 0 {
		if f > over {
			f = over
		}
		b.Ms[CauseFault] += f
		over -= f
	}
	b.Ms[flaggedCause(in)] += over
	// The dominant cause is whichever non-compute class got the biggest
	// charge (ties break toward the lower enum index, so the overall
	// result is deterministic); a frame with no overage charges is
	// compute-dominated.
	b.Dominant = CauseCompute
	maxMs := 0.0
	for c := 1; c < NumCauses; c++ {
		if b.Ms[c] > maxMs {
			maxMs = b.Ms[c]
			b.Dominant = Cause(c)
		}
	}
}

// flaggedCause picks the owner of the unexplained overage by fixed
// priority: the rarer and more disruptive mechanisms win, so a frame
// that was both degraded and scenario-missed charges the miss (the
// degradation was itself likely a *response* to sustained misses, not
// the other way round). Known injected fault time was already charged
// above, so FaultMs alone does not claim the remainder — only an actual
// recovery frame does.
func flaggedCause(in *FrameInput) Cause {
	switch {
	case in.FaultRecover:
		return CauseFault
	case in.ScenarioMiss:
		return CauseScenarioMiss
	case in.Rebalanced:
		return CauseRebalance
	case in.CoreWait:
		return CauseCoreWait
	case in.Degraded:
		return CauseDegrade
	case in.Drain:
		return CauseDrain
	}
	return CauseCompute
}

// ledger accumulates per-cause totals for one stream (and, summed, the
// fleet). Guarded by the tracker mutex.
type ledger struct {
	causeMs     [NumCauses]float64
	causeFrames [NumCauses]uint64 // frames whose overage the cause owned
	frames      uint64
	missed      uint64
	latencySum  float64
	overSum     float64
}

func (l *ledger) add(b *Breakdown, missed bool) {
	for c := 0; c < NumCauses; c++ {
		l.causeMs[c] += b.Ms[c]
	}
	l.causeFrames[b.Dominant]++
	l.frames++
	if missed {
		l.missed++
	}
	l.latencySum += b.Ms[CauseCompute] + b.OverMs
	l.overSum += b.OverMs
}
