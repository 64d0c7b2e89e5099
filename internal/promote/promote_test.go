package promote

import (
	"bytes"
	"strings"
	"testing"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/fault"
	"triplec/internal/flowgraph"
	"triplec/internal/sched"
	"triplec/internal/shadow"
)

func TestNewControllerRejectsBaselineChallenger(t *testing.T) {
	if _, err := NewController(Config{Challenger: core.BackendBaseline}); err == nil {
		t.Fatal("controller accepted the deployed baseline as its own challenger")
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	for st := StateShadow; st <= StateQuarantined; st++ {
		got, err := ParseState(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseState(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseState("limbo"); err == nil {
		t.Fatal("unknown state parsed")
	}
}

// TestReplayMiscalDeterministicRollback is the forced-rollback drill plus
// the determinism contract in one replay pair: the same seed and fault
// schedule must produce byte-identical transition logs across two runs, the
// miscalibrated challenger must never end the run promoted, and the
// rollback must land within one rebalance interval with a healthy
// post-rollback miss rate.
func TestReplayMiscalDeterministicRollback(t *testing.T) {
	cfg := ReplayConfig{
		Streams:      2,
		Frames:       200,
		Miscalibrate: true,
		// Mild ambient spikes: enough to exercise the fault schedule in the
		// determinism contract without drowning the post-rollback miss rate
		// (spikes are environmental and keep firing after the rollback).
		Fault: &fault.Config{
			Seed:     99,
			Defaults: fault.Probs{Spike: 0.01},
			SpikeMs:  25,
		},
	}
	run := func() (*ReplayResult, string) {
		var log bytes.Buffer
		res, _, err := Replay(cfg, &log)
		if err != nil {
			t.Fatal(err)
		}
		return res, log.String()
	}
	res, log1 := run()
	_, log2 := run()

	if log1 != log2 {
		t.Fatalf("transition logs differ between identical runs:\n--- run 1:\n%s--- run 2:\n%s", log1, log2)
	}
	if log1 == "" {
		t.Fatal("no transitions logged: the miscalibrated challenger was never canaried")
	}
	if len(res.Transitions) == 0 {
		t.Fatal("empty transition slice")
	}
	first := res.Transitions[0]
	if first.From != StateShadow || first.To != StateCanary || first.Backend != shadow.BackendMiscal {
		t.Fatalf("first transition %+v, want shadow -> canary of %s", first, shadow.BackendMiscal)
	}
	if res.FinalState == StatePromoted || res.FinalState == StateShadow {
		t.Fatalf("final state %s: the miscalibrated challenger was never caught", res.FinalState)
	}
	caught := false
	for _, tr := range res.Transitions {
		if tr.To == StateRolledBack || tr.To == StateQuarantined {
			caught = true
			break
		}
	}
	if !caught {
		t.Fatal("no rollback or quarantine in the transition log")
	}
	if res.RollbackFrame < 0 {
		t.Fatal("replay did not record the rollback frame")
	}
	// Rollback must complete within one rebalance interval (the serving
	// layer's default is 4 demand reports); the controller un-steers every
	// manager synchronously, so the observed lag is zero serving steps.
	if res.RollbackLagFrames < 0 || res.RollbackLagFrames > 4 {
		t.Fatalf("rollback re-steer lag %d serving steps, want within one rebalance interval (≤ 4)",
			res.RollbackLagFrames)
	}
	// Post-rollback the fleet plans from the baseline again: the miss rate
	// must sit below the guard that triggered the rollback.
	if rate := res.PostRollbackMissRate(); res.PostRollbackFrames > 16 && rate >= 0.25 {
		t.Fatalf("post-rollback miss rate %.3f over %d frames, want below the 0.25 guard",
			rate, res.PostRollbackFrames)
	}
}

// TestStatRingPercentile pins the adaptive-guard history ring: bounded
// retention, interpolated order statistics, degenerate sizes.
func TestStatRingPercentile(t *testing.T) {
	var r statRing
	if got := r.percentile(0.5); got != 0 {
		t.Fatalf("empty ring percentile = %v, want 0", got)
	}
	r.push(0.3)
	if got := r.percentile(0.95); got != 0.3 {
		t.Fatalf("single-entry p95 = %v, want 0.3", got)
	}
	// Push past capacity: only the last 8 values (0.1 .. 0.8) survive.
	for _, v := range []float64{0.9, 0.95, 0.5, 0.1, 0.7, 0.3, 0.8, 0.2, 0.6, 0.4} {
		r.push(v)
	}
	if r.n != adaptiveWindows {
		t.Fatalf("ring kept %d entries, want %d", r.n, adaptiveWindows)
	}
	if got := r.percentile(0); got != 0.1 {
		t.Fatalf("p0 = %v, want 0.1", got)
	}
	if got := r.percentile(1); got != 0.8 {
		t.Fatalf("p100 = %v, want 0.8", got)
	}
	if got, want := r.percentile(0.5), 0.45; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
}

// TestAdaptiveGuardsMiscalRollback runs the forced-rollback drill with
// baseline-derived guardrails: the canary must wait for the baseline
// history to warm up, the derived thresholds must appear in the canary
// transition reason, the miscalibrated challenger must still be caught,
// the breach reason must be tagged baseline-derived, and the whole thing
// must stay byte-deterministic.
func TestAdaptiveGuardsMiscalRollback(t *testing.T) {
	cfg := ReplayConfig{
		Streams:      2,
		Frames:       240,
		Miscalibrate: true,
		Promote:      Config{AdaptiveGuards: true},
	}
	run := func() (*ReplayResult, *Controller, string) {
		var log bytes.Buffer
		res, ctl, err := Replay(cfg, &log)
		if err != nil {
			t.Fatal(err)
		}
		return res, ctl, log.String()
	}
	res, ctl, log1 := run()
	_, _, log2 := run()
	if log1 != log2 {
		t.Fatalf("adaptive transition logs differ between identical runs:\n--- run 1:\n%s--- run 2:\n%s", log1, log2)
	}
	if len(res.Transitions) == 0 {
		t.Fatal("no transitions: the named challenger was never canaried")
	}
	first := res.Transitions[0]
	if first.From != StateShadow || first.To != StateCanary {
		t.Fatalf("first transition %+v, want shadow -> canary", first)
	}
	// Canary entry is gated on two folded 64-frame baseline windows.
	if first.Frame < 2*guardWindow {
		t.Fatalf("canary at fleet frame %d, before the %d-frame baseline warmup", first.Frame, 2*guardWindow)
	}
	if !strings.Contains(first.Reason, "adaptive guards over") {
		t.Fatalf("canary reason %q does not carry the derived thresholds", first.Reason)
	}
	if res.FinalState == StatePromoted || res.FinalState == StateShadow {
		t.Fatalf("final state %s: the miscalibrated challenger slipped past the adaptive guards", res.FinalState)
	}
	tagged := false
	for _, tr := range res.Transitions {
		if (tr.To == StateRolledBack || tr.To == StateQuarantined) &&
			strings.Contains(tr.Reason, "(baseline-derived)") {
			tagged = true
			break
		}
	}
	if !tagged {
		t.Fatalf("no rollback with a baseline-derived breach reason in:\n%s", log1)
	}
	st := ctl.Status()
	if st.GuardMode != "adaptive" {
		t.Fatalf("status guard_mode %q, want adaptive", st.GuardMode)
	}
	if !st.Guards.Ready || st.Guards.Windows < 2 {
		t.Fatalf("status guards not ready after the drill: %+v", st.Guards)
	}
	if st.Guards.MinHitRate <= 0 {
		t.Fatalf("derived scenario-hit floor %v, want > 0 (the baseline hits most scenarios)", st.Guards.MinHitRate)
	}
}

// exactBackend forecasts the observation it last saw — a perfectly
// calibrated challenger for exercising the steady canary path.
type exactBackend struct {
	name string
	pred core.Prediction
}

func (e *exactBackend) Name() string { return e.name }

func (e *exactBackend) Observe(obs *core.Observation) {
	e.pred = core.Prediction{
		Scenario: obs.Scenario,
		Mask:     obs.Mask,
		Ms:       obs.Ms,
		TotalMs:  obs.TotalMs,
	}
}

func (e *exactBackend) Predict(dst *core.Prediction) { *dst = e.pred }

func (e *exactBackend) Reset() { e.pred = core.Prediction{} }

// TestCanaryObservationPathAllocFree pins the controller's steady-state
// per-frame work — board scoring feeding observeScores, plus the served
// deadline outcome — at zero allocations while a canary is live.
func TestCanaryObservationPathAllocFree(t *testing.T) {
	study := experiments.DefaultStudy()
	study.FrameW, study.FrameH = 96, 96
	study.TrainSeqs = 2
	study.TrainFrames = 30
	p, err := study.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := sched.NewManager(p, study.Arch)
	if err != nil {
		t.Fatal(err)
	}
	board, err := shadow.NewBoard("pin", []core.Backend{
		&exactBackend{name: core.BackendBaseline},
		&exactBackend{name: "challenger"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := NewController(Config{Challenger: "challenger"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachStream("pin", board, mgr); err != nil {
		t.Fatal(err)
	}

	obs := core.Observation{
		Scenario:    flowgraph.WorstCase(),
		TotalMs:     10,
		FramePixels: 100,
		Mask:        1,
	}
	obs.Ms[0] = 10
	// Warm up: prime the forecasts and take the shadow -> canary transition
	// (which appends to the log) outside the measured window.
	for i := 0; i < 8; i++ {
		board.ObserveFrame(&obs)
		ctl.ObserveServed(0, false)
	}
	if st := ctl.State(); st != StateCanary {
		t.Fatalf("controller in %s after warmup, want canary", st)
	}
	// The warmup and the measured frames stay inside canaryFrames, so the
	// canary is still open when the pin ends.
	allocs := testing.AllocsPerRun(canaryFrames-16, func() {
		board.ObserveFrame(&obs)
		ctl.ObserveServed(0, false)
	})
	if allocs != 0 {
		t.Fatalf("canary observation path allocates %.1f times per frame, want 0", allocs)
	}
	if st := ctl.State(); st != StateCanary {
		t.Fatalf("controller left canary during the pin: %s", st)
	}
}

// TestStreamPredictorSteering: the per-stream predictor identity follows
// the canary assignment and snaps back to the baseline on rollback.
func TestStreamPredictorSteering(t *testing.T) {
	var res *ReplayResult
	var ctl *Controller
	var err error
	res, ctl, err = Replay(ReplayConfig{Streams: 2, Frames: 60, Miscalibrate: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RollbackFrame < 0 {
		t.Fatalf("expected a rollback within 60 frames, final state %s", res.FinalStateS)
	}
	// After the rollback every stream must be back on the baseline.
	if st := ctl.State(); st == StateCanary || st == StatePromoted {
		t.Fatalf("still steering after the drill: %s", st)
	}
	for i := 0; i < res.Streams; i++ {
		if got := ctl.StreamPredictor(i); got != core.BackendBaseline {
			t.Fatalf("stream %d predictor %q after rollback, want %q", i, got, core.BackendBaseline)
		}
	}
}
