package experiments

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"triplec/internal/core"
	"triplec/internal/fault"
	"triplec/internal/promote"
	"triplec/internal/shadow"
	"triplec/internal/stats"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the drill golden files")

// checkGolden compares got against testdata/<name>, rewriting the file
// instead under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", filepath.FromSlash(name))
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden recorded at ade9e74:\n--- got:\n%s--- want:\n%s", name, got, want)
	}
}

// TestPromoteReplayGolden pins the promotion drill's transition log and
// result document — `triplec promote -streams 2 -frames 200` with the CLI
// defaults and its indented JSON rendering — against files recorded at
// ade9e74, before the replay moved onto the shared fleet driver. miscal.log
// is byte for byte what the CI promote-smoke drill writes with -out.
// Regenerate deliberately with: go test ./internal/experiments -run ReplayGolden -update-golden
func TestPromoteReplayGolden(t *testing.T) {
	cli := promote.Config{CanaryFrac: 0.25, MaxMissRate: 0.25} // what cmd/triplec passes by default
	adaptive := cli
	adaptive.AdaptiveGuards = true
	auto := cli
	auto.Challenger = "auto"
	for _, tc := range []struct {
		name string
		cfg  PromoteReplayConfig
	}{
		{"miscal", PromoteReplayConfig{Streams: 2, Frames: 200, Seed: 11, Train: 2, Miscalibrate: true, Promote: cli}},
		{"auto_spikes", PromoteReplayConfig{Streams: 2, Frames: 200, Seed: 11, Train: 2, Promote: auto,
			Fault: &fault.Config{Seed: 11, Defaults: fault.Probs{Spike: 0.2}, SpikeMs: 25}}},
		{"miscal_adaptive", PromoteReplayConfig{Streams: 2, Frames: 200, Seed: 11, Train: 2, Miscalibrate: true, Promote: adaptive}},
	} {
		var log, doc bytes.Buffer
		res, _, err := ReplayPromote(tc.cfg, &log)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Transitions) == 0 {
			t.Errorf("%s: no transitions; the golden would not cover the state machine", tc.name)
		}
		enc := json.NewEncoder(&doc)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "promote/"+tc.name+".log", log.Bytes())
		checkGolden(t, "promote/"+tc.name+".json", doc.Bytes())
	}
}

// TestReplayMiscalDeterministicRollback is the forced-rollback drill plus
// the determinism contract in one replay pair: the same seed and fault
// schedule must produce byte-identical transition logs across two runs, the
// miscalibrated challenger must never end the run promoted, and the
// rollback must land within one rebalance interval with a healthy
// post-rollback miss rate.
func TestReplayMiscalDeterministicRollback(t *testing.T) {
	cfg := PromoteReplayConfig{
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
	run := func() (*PromoteReplayResult, string) {
		var log bytes.Buffer
		res, _, err := ReplayPromote(cfg, &log)
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
	if first.From != promote.StateShadow || first.To != promote.StateCanary || first.Backend != shadow.BackendMiscal {
		t.Fatalf("first transition %+v, want shadow -> canary of %s", first, shadow.BackendMiscal)
	}
	if res.FinalState == promote.StatePromoted || res.FinalState == promote.StateShadow {
		t.Fatalf("final state %s: the miscalibrated challenger was never caught", res.FinalState)
	}
	caught := false
	for _, tr := range res.Transitions {
		if tr.To == promote.StateRolledBack || tr.To == promote.StateQuarantined {
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

// TestAdaptiveGuardsMiscalRollback runs the forced-rollback drill with
// baseline-derived guardrails: the canary must wait for the baseline
// history to warm up, the derived thresholds must appear in the canary
// transition reason, the miscalibrated challenger must still be caught,
// the breach reason must be tagged baseline-derived, and the whole thing
// must stay byte-deterministic.
func TestAdaptiveGuardsMiscalRollback(t *testing.T) {
	cfg := PromoteReplayConfig{
		Streams:      2,
		Frames:       240,
		Miscalibrate: true,
		Promote:      promote.Config{AdaptiveGuards: true},
	}
	run := func() (*PromoteReplayResult, *promote.Controller, string) {
		var log bytes.Buffer
		res, ctl, err := ReplayPromote(cfg, &log)
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
	if first.From != promote.StateShadow || first.To != promote.StateCanary {
		t.Fatalf("first transition %+v, want shadow -> canary", first)
	}
	// Canary entry is gated on two folded 64-frame baseline windows (the
	// controller's guard window is stats.BitWindowSize frames).
	if first.Frame < 2*stats.BitWindowSize {
		t.Fatalf("canary at fleet frame %d, before the %d-frame baseline warmup", first.Frame, 2*stats.BitWindowSize)
	}
	if !strings.Contains(first.Reason, "adaptive guards over") {
		t.Fatalf("canary reason %q does not carry the derived thresholds", first.Reason)
	}
	if res.FinalState == promote.StatePromoted || res.FinalState == promote.StateShadow {
		t.Fatalf("final state %s: the miscalibrated challenger slipped past the adaptive guards", res.FinalState)
	}
	tagged := false
	for _, tr := range res.Transitions {
		if (tr.To == promote.StateRolledBack || tr.To == promote.StateQuarantined) &&
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

// TestStreamPredictorSteering: the per-stream predictor identity follows
// the canary assignment and snaps back to the baseline on rollback.
func TestStreamPredictorSteering(t *testing.T) {
	var res *PromoteReplayResult
	var ctl *promote.Controller
	var err error
	res, ctl, err = ReplayPromote(PromoteReplayConfig{Streams: 2, Frames: 60, Miscalibrate: true}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.RollbackFrame < 0 {
		t.Fatalf("expected a rollback within 60 frames, final state %s", res.FinalStateS)
	}
	// After the rollback every stream must be back on the baseline.
	if st := ctl.State(); st == promote.StateCanary || st == promote.StatePromoted {
		t.Fatalf("still steering after the drill: %s", st)
	}
	for i := 0; i < res.Streams; i++ {
		if got := ctl.StreamPredictor(i); got != core.BackendBaseline {
			t.Fatalf("stream %d predictor %q after rollback, want %q", i, got, core.BackendBaseline)
		}
	}
}
