package stream

import (
	"math"
	"strings"
	"testing"
	"time"

	"triplec/internal/frame"
	"triplec/internal/metrics"
	"triplec/internal/pipeline"
	"triplec/internal/sched"
	"triplec/internal/slo"
	"triplec/internal/tasks"
)

// withRebuild equips a stream config with a Rebuild hook that constructs a
// fresh engine+manager pair (re-installing hookFn on the replacement when
// given — a real deployment re-wires its fault instrumentation the same
// way).
func withRebuild(t *testing.T, sc Config, hookFn func(tasks.Name, int)) Config {
	t.Helper()
	s := testStudy()
	p, err := s.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	sc.Rebuild = func() (*pipeline.Engine, *sched.Manager, error) {
		eng, mgr, err := s.ManagedEngine(p)
		if err == nil && hookFn != nil {
			eng.SetTaskHook(hookFn)
		}
		return eng, mgr, err
	}
	return sc
}

// assertFrameAccounting checks the offered-frame partition invariant.
func assertFrameAccounting(t *testing.T, st Stats, n int) {
	t.Helper()
	if st.Offered != n {
		t.Fatalf("%s: offered %d frames, want %d", st.Name, st.Offered, n)
	}
	if got := st.Processed + st.Skipped + st.Failed + st.Abandoned; got != n {
		t.Fatalf("%s: processed %d + skipped %d + failed %d + abandoned %d = %d, want %d",
			st.Name, st.Processed, st.Skipped, st.Failed, st.Abandoned, got, n)
	}
}

// TestTaskPanicFailsFrameNotStream: a panicking task costs one frame; the
// stream (and the process) survive without supervision.
func TestTaskPanicFailsFrameNotStream(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "panicky", 41, 0)
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx%7 == 3 {
			panic("injected")
		}
	})
	srv, err := NewServer(ServerConfig{}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	out, err := srv.Run(n)
	if err != nil {
		t.Fatalf("recovered task panics must not fail the run: %v", err)
	}
	st := out.Streams[0].Stats
	assertFrameAccounting(t, st, n)
	if st.Failed == 0 {
		t.Fatal("no frames failed despite injected panics")
	}
	if st.Processed == 0 {
		t.Fatal("no frames processed")
	}
	if out.Streams[0].Trace.Len() != n {
		t.Fatalf("trace has %d rows, want %d", out.Streams[0].Trace.Len(), n)
	}
	failedCol, err := out.Streams[0].Trace.Get("failed")
	if err != nil {
		t.Fatal(err)
	}
	marked := 0
	for _, v := range failedCol {
		if v == 1 {
			marked++
		}
	}
	if marked != st.Failed {
		t.Fatalf("trace marks %d failed frames, stats say %d", marked, st.Failed)
	}
}

// TestWatchdogAbandonsSlowFrame: a frame exceeding the wall-clock deadline
// is abandoned (after waiting for the engine) and serving continues.
func TestWatchdogAbandonsSlowFrame(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "slow", 43, 0)
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 4 && task == tasks.NameDetect {
			time.Sleep(time.Duration(120*raceScale) * time.Millisecond)
		}
	})
	srv, err := NewServer(ServerConfig{WatchdogMs: 40 * raceScale, StallMs: 2000 * raceScale}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	const n = 12
	out, err := srv.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Streams[0].Stats
	assertFrameAccounting(t, st, n)
	if st.Abandoned != 1 {
		t.Fatalf("abandoned %d frames, want exactly the slow one", st.Abandoned)
	}
	if st.Processed != n-1 {
		t.Fatalf("processed %d, want %d", st.Processed, n-1)
	}
}

// TestSupervisorRestartsAfterCrash: a fatal serve error (nil source frame)
// costs one frame under supervision; the loop resumes at the next frame.
func TestSupervisorRestartsAfterCrash(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "crashy", 47, 0)
	src := sc.Source
	sc.Source = func(i int) *frame.Frame {
		if i == 5 {
			return nil
		}
		return src(i)
	}
	srv, err := NewServer(ServerConfig{Supervise: true}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	out, err := srv.Run(n)
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}
	st := out.Streams[0].Stats
	assertFrameAccounting(t, st, n)
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if st.Failed != 1 {
		t.Fatalf("failed = %d, want 1 (the nil frame)", st.Failed)
	}
	if st.Quarantined {
		t.Fatal("quarantined after a single recoverable crash")
	}
	if st.MeanRecoveryMs <= 0 {
		t.Fatal("no recovery time recorded")
	}
	if out.Streams[0].Trace.Len() != n {
		t.Fatalf("trace has %d rows, want %d", out.Streams[0].Trace.Len(), n)
	}
}

// TestSupervisorQuarantinesAfterRepeatedCrashes: consecutive no-progress
// crashes past MaxRestarts quarantine the stream; a healthy peer keeps
// serving and inherits the cores.
func TestSupervisorQuarantinesAfterRepeatedCrashes(t *testing.T) {
	s := testStudy()
	bad := mkStream(t, s, "doomed", 53, 0)
	src := bad.Source
	bad.Source = func(i int) *frame.Frame {
		if i >= 4 {
			return nil // permanently broken source
		}
		return src(i)
	}
	good := mkStream(t, s, "healthy", 59, 0)
	srv, err := NewServer(ServerConfig{Supervise: true, MaxRestarts: 2}, []Config{bad, good})
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	out, err := srv.Run(n)
	if err == nil {
		t.Fatal("run reported no error despite a quarantined stream")
	}
	if !strings.Contains(err.Error(), "quarantined") {
		t.Fatalf("error %q does not mention quarantine", err)
	}
	st := out.Streams[0].Stats
	if !st.Quarantined {
		t.Fatal("doomed stream not quarantined")
	}
	if st.Restarts != 2 {
		t.Fatalf("restarts = %d before quarantine, want MaxRestarts = 2", st.Restarts)
	}
	// The healthy stream is untouched and ends holding the whole machine.
	hs := out.Streams[1].Stats
	if hs.Quarantined || out.Streams[1].Err != nil {
		t.Fatalf("healthy stream affected: %+v, err %v", hs, out.Streams[1].Err)
	}
	assertFrameAccounting(t, hs, n)
	if out.FinalBudgets[0] != 0 {
		t.Fatalf("quarantined stream still holds %d cores", out.FinalBudgets[0])
	}
	if out.FinalBudgets[1] != srv.cfg.ModelCores {
		t.Fatalf("healthy stream holds %d cores, want the whole machine (%d)", out.FinalBudgets[1], srv.cfg.ModelCores)
	}
}

// TestSupervisorRebuildsAfterStall: a stuck task poisons the engine; the
// supervisor rebuilds via Config.Rebuild and the stream finishes.
func TestSupervisorRebuildsAfterStall(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "stuck", 61, 0)
	// The first engine hangs on frame 3 far past StallMs; the rebuilt
	// engine gets no hook and serves cleanly.
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 3 && task == tasks.NameDetect {
			time.Sleep(time.Duration(1500*raceScale) * time.Millisecond)
		}
	})
	sc = withRebuild(t, sc, nil)
	srv, err := NewServer(ServerConfig{
		Supervise: true, WatchdogMs: 20 * raceScale, StallMs: 60 * raceScale, HostWorkers: 4,
	}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	const n = 15
	out, err := srv.Run(n)
	if err != nil {
		t.Fatalf("stalled stream did not recover: %v", err)
	}
	st := out.Streams[0].Stats
	assertFrameAccounting(t, st, n)
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	if st.Abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (the stalled frame)", st.Abandoned)
	}
	if st.Quarantined {
		t.Fatal("quarantined despite a working Rebuild")
	}
}

// TestRebuildKeepsPredictorSink: with Metrics and SLO on, the runner is the
// predictor's one sink, and it must be re-installed on the rebuilt manager's
// predictor — scenario forecasts scored after a stall still reach both the
// accountant (hit/miss counters) and the cause ledger (scenario-miss charge).
func TestRebuildKeepsPredictorSink(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "stuck", 61, 26)
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 3 && task == tasks.NameDetect {
			time.Sleep(time.Duration(1500*raceScale) * time.Millisecond)
		}
	})
	sc = withRebuild(t, sc, nil)
	reg := metrics.NewRegistry()
	tracker := slo.NewTracker(slo.Config{Streams: 1})
	if err := tracker.EnableMetrics(reg, []string{"stuck"}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Supervise: true, WatchdogMs: 20 * raceScale, StallMs: 60 * raceScale, HostWorkers: 4,
		Metrics: reg, SLO: tracker,
	}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	acct := srv.tels[0].acct
	scored := func() uint64 { return acct.ScenarioHits.Value() + acct.ScenarioMisses.Value() }
	scenarioMissMs := func() float64 {
		for _, c := range tracker.Status(true).Streams[0].Causes {
			if c.Cause == slo.CauseScenarioMiss.String() {
				return c.Ms
			}
		}
		t.Fatal("ledger has no scenario-miss cause")
		return 0
	}
	// Snapshot both consumers at the moment of the rebuild.
	var scoredAtRebuild, missesAtRebuild uint64
	var ledgerAtRebuild float64
	rebuild := sc.Rebuild
	srv.streams[0].Rebuild = func() (*pipeline.Engine, *sched.Manager, error) {
		scoredAtRebuild, missesAtRebuild = scored(), acct.ScenarioMisses.Value()
		ledgerAtRebuild = scenarioMissMs()
		return rebuild()
	}

	const n = 120
	out, err := srv.Run(n)
	if err != nil {
		t.Fatalf("stalled stream did not recover: %v", err)
	}
	st := out.Streams[0].Stats
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", st.Restarts)
	}
	// Every processed frame but the stream's first is planned, so scored.
	if got, want := scored(), uint64(st.Processed-1); got != want {
		t.Fatalf("accountant scored %d scenario forecasts (%d before the rebuild), want %d — the sink was lost",
			got, scoredAtRebuild, want)
	}
	if acct.ScenarioMisses.Value() <= missesAtRebuild {
		t.Fatalf("no scenario miss counted after the rebuild (%d before it); pick a livelier sequence", missesAtRebuild)
	}
	if got := scenarioMissMs(); got <= ledgerAtRebuild {
		t.Fatalf("ledger scenario-miss charge %v ms did not grow after the rebuild (%v before it)", got, ledgerAtRebuild)
	}
}

// TestStallWithoutRebuildQuarantines: a stalled engine cannot be reused, so
// without a Rebuild hook the stream must be quarantined immediately.
func TestStallWithoutRebuildQuarantines(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "dead-end", 67, 0)
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 2 && task == tasks.NameDetect {
			time.Sleep(time.Duration(1500*raceScale) * time.Millisecond)
		}
	})
	srv, err := NewServer(ServerConfig{
		Supervise: true, WatchdogMs: 20 * raceScale, StallMs: 60 * raceScale, HostWorkers: 4,
	}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Run(10)
	if err == nil || !strings.Contains(err.Error(), "Rebuild") {
		t.Fatalf("err %v, want quarantine naming the missing Rebuild hook", err)
	}
	st := out.Streams[0].Stats
	if !st.Quarantined {
		t.Fatal("stream not quarantined")
	}
	// Quarantine on the very first crash: no restart ever completed, so the
	// recovery accounting must stay at zero instead of dividing by a zero
	// restart count.
	if st.Restarts != 0 {
		t.Fatalf("restarts = %d, want 0 (the first crash went straight to quarantine)", st.Restarts)
	}
	if st.MeanRecoveryMs != 0 || math.IsNaN(st.MeanRecoveryMs) {
		t.Fatalf("MeanRecoveryMs = %v, want 0 with no completed recoveries", st.MeanRecoveryMs)
	}
}

// TestQuarantineExcludesAbandonedRecovery: the crash that triggers quarantine
// never completes its recovery, so the mean covers only the restarts that
// actually resumed serving.
func TestQuarantineExcludesAbandonedRecovery(t *testing.T) {
	s := testStudy()
	bad := mkStream(t, s, "budgeted", 73, 0)
	src := bad.Source
	bad.Source = func(i int) *frame.Frame {
		if i >= 3 {
			return nil // permanently broken source
		}
		return src(i)
	}
	// RestartBudget 1: the first crash restarts (MaxRestarts 5 tolerates it),
	// the second exhausts the lifetime budget and quarantines.
	srv, err := NewServer(ServerConfig{Supervise: true, MaxRestarts: 5, RestartBudget: 1}, []Config{bad})
	if err != nil {
		t.Fatal(err)
	}
	out, err := srv.Run(12)
	if err == nil || !strings.Contains(err.Error(), "restart budget") {
		t.Fatalf("err %v, want quarantine naming the exhausted restart budget", err)
	}
	st := out.Streams[0].Stats
	if !st.Quarantined {
		t.Fatal("stream not quarantined")
	}
	if st.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1 completed restart before quarantine", st.Restarts)
	}
	if st.MeanRecoveryMs <= 0 || math.IsNaN(st.MeanRecoveryMs) {
		t.Fatalf("MeanRecoveryMs = %v, want a positive finite mean over the single completed recovery", st.MeanRecoveryMs)
	}
}

// TestDegradationLadder: sustained failures step the quality down; after
// the fault clears the cool-down steps it back to full.
func TestDegradationLadder(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "ladder", 71, 0)
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx >= 3 && frameIdx <= 8 && task == tasks.NameMKXExt {
			panic("burst fault")
		}
	})
	srv, err := NewServer(ServerConfig{Degrade: true}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	out, err := srv.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	st := out.Streams[0].Stats
	assertFrameAccounting(t, st, n)
	if st.Degradations < 2 {
		t.Fatalf("degradations = %d, want at least one down and one up transition", st.Degradations)
	}
	if st.FinalQuality != pipeline.QualityFull {
		t.Fatalf("final quality %v after the fault cleared and the cool-down elapsed, want full", st.FinalQuality)
	}
	// During the burst the reports carry the degraded rungs.
	sawDegraded := false
	for _, rep := range out.Streams[0].Reports {
		if rep.Quality > pipeline.QualityFull {
			sawDegraded = true
			break
		}
	}
	if !sawDegraded {
		t.Fatal("no processed frame ran at a degraded rung")
	}
}
