package pipeline

import (
	"slices"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/platform"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

func testConfig() Config {
	return Config{
		Width: 128, Height: 128,
		MarkerSpacing: 36,
		Arch:          platform.Blackford(),
	}
}

func testSeq(t *testing.T, seed uint64) *synth.Sequence {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	cfg.Width, cfg.Height = 128, 128
	cfg.MarkerSpacing = 36
	cfg.NoiseSigma = 250
	cfg.QuantumGain = 0
	cfg.ClutterRate = 2
	cfg.DropoutEvery = 0
	s, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	cfg := testConfig()
	cfg.Width = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero width accepted")
	}
	cfg = testConfig()
	cfg.MarkerSpacing = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("zero spacing accepted")
	}
	cfg = testConfig()
	cfg.Arch.NumCPUs = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("invalid arch accepted")
	}
}

// TestDefaults: memory traffic is charged at the paper's 2,048 KB frame
// whatever size the engine processes.
func TestDefaults(t *testing.T) {
	e := newEngine(t)
	kb, err := flowgraph.IntraTaskKB(tasks.NameRDGFull, true, 2048, e.cfg.Arch.L2.SizeBytes/1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.intra[tasks.IndexOf(tasks.NameRDGFull)][1].memBytes; got != float64(kb)*1024 || kb == 0 {
		t.Fatalf("RDG FULL charged %v bytes, want %d KB at the paper frame", got, kb)
	}
}

func TestProcessEmptyFrame(t *testing.T) {
	e := newEngine(t)
	if _, err := e.Process(frame.New(0, 0), partition.Serial()); err == nil {
		t.Fatal("empty frame accepted")
	}
	if _, err := e.Process(nil, partition.Serial()); err == nil {
		t.Fatal("nil frame accepted")
	}
}

func TestProcessInvalidMapping(t *testing.T) {
	e := newEngine(t)
	f, _ := testSeq(t, 1).Frame(0)
	if _, err := e.Process(f, partition.Serial().With(tasks.NameREG, 4)); err == nil {
		t.Fatal("invalid mapping accepted")
	}
}

func TestPipelineRecoversAndEnhances(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 7)
	var sawOutput, sawROI bool
	for i := 0; i < 30; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rep.LatencyMs <= 0 {
			t.Fatalf("frame %d: non-positive latency", i)
		}
		if rep.Output != nil {
			sawOutput = true
		}
		if !rep.ROI.Empty() {
			sawROI = true
		}
	}
	if !sawOutput {
		t.Fatal("pipeline never produced an enhanced output over 30 frames")
	}
	if !sawROI {
		t.Fatal("pipeline never estimated an ROI")
	}
}

func TestScenarioSwitching(t *testing.T) {
	// With contrast bursts scheduled, the pipeline must visit both RDG-on
	// and RDG-off scenarios, and both granularities.
	e := newEngine(t)
	s := testSeq(t, 11)
	seen := map[int]bool{}
	for i := 0; i < 60; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		seen[rep.Scenario.Index()] = true
	}
	var rdgOn, rdgOff, roi, full bool
	for idx := range seen {
		sc := flowIdx(idx)
		if sc.RDGOn {
			rdgOn = true
		} else {
			rdgOff = true
		}
		if sc.ROIKnown {
			roi = true
		} else {
			full = true
		}
	}
	if !rdgOn || !rdgOff {
		t.Fatalf("pipeline did not switch RDG on and off: %v", seen)
	}
	if !roi || !full {
		t.Fatalf("pipeline did not switch granularity: %v", seen)
	}
}

func TestFirstFrameCannotRegister(t *testing.T) {
	e := newEngine(t)
	f, _ := testSeq(t, 13).Frame(0)
	rep, err := e.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Registration.OK {
		t.Fatal("first frame registered without a predecessor")
	}
	if rep.Ran(tasks.NameENH) || rep.Ran(tasks.NameZOOM) {
		t.Fatal("enhancement must not run when registration fails")
	}
}

func TestROIGranularityReducesLatency(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 17)
	var fullLat, roiLat []float64
	for i := 0; i < 40; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if !rep.Scenario.RDGOn {
			continue
		}
		if rep.Scenario.ROIKnown {
			roiLat = append(roiLat, rep.TaskMs(tasks.NameRDGROI))
		} else {
			fullLat = append(fullLat, rep.TaskMs(tasks.NameRDGFull))
		}
	}
	if len(fullLat) == 0 || len(roiLat) == 0 {
		t.Skip("sequence did not produce both granularities with RDG on")
	}
	if mean(roiLat) >= mean(fullLat) {
		t.Fatalf("ROI RDG (%.1f ms) must be cheaper than FULL (%.1f ms)",
			mean(roiLat), mean(fullLat))
	}
}

func TestStripingReducesRDGLatency(t *testing.T) {
	s := testSeq(t, 19)
	serialE := newEngine(t)
	stripedE := newEngine(t)
	var serialSum, stripedSum float64
	n := 0
	for i := 0; i < 20; i++ {
		f, _ := s.Frame(i)
		rs, err := serialE.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		rp, err := stripedE.Process(f, partition.Serial().With(tasks.NameRDGFull, 2).With(tasks.NameRDGROI, 2))
		if err != nil {
			t.Fatal(err)
		}
		if rs.Ran(tasks.NameRDGFull) && rp.Ran(tasks.NameRDGFull) {
			serialSum += rs.TaskMs(tasks.NameRDGFull)
			stripedSum += rp.TaskMs(tasks.NameRDGFull)
			n++
		}
	}
	if n == 0 {
		t.Skip("no common RDG FULL frames")
	}
	if stripedSum >= serialSum {
		t.Fatalf("2-stripe RDG (%.1f) must beat serial (%.1f)", stripedSum, serialSum)
	}
}

func TestLatencyInPaperBand(t *testing.T) {
	// With costs extrapolated to the 1024x1024 geometry, full-processing
	// frames must land in the paper's straightforward-mapping band
	// (roughly 30-130 ms; Fig. 7 shows 60-120 ms).
	e := newEngine(t)
	s := testSeq(t, 23)
	for i := 0; i < 40; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rep.LatencyMs < 2 || rep.LatencyMs > 200 {
			t.Fatalf("frame %d latency %.1f ms outside plausible band (scenario %s)",
				i, rep.LatencyMs, rep.Scenario)
		}
	}
}

func TestMemoryTrafficCharged(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 29)
	for i := 0; i < 10; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		for _, ex := range rep.Execs {
			if ex.Task == tasks.NameRDGFull && ex.Cost.MemBytes <= 0 {
				t.Fatal("RDG FULL must carry cache-overflow memory traffic")
			}
		}
	}
}

func TestResetClearsState(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 31)
	for i := 0; i < 10; i++ {
		f, _ := s.Frame(i)
		if _, err := e.Process(f, partition.Serial()); err != nil {
			t.Fatal(err)
		}
	}
	e.Reset()
	f, _ := s.Frame(10)
	rep, err := e.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Index != 0 {
		t.Fatalf("Reset must restart frame numbering, got %d", rep.Index)
	}
	if rep.Registration.OK {
		t.Fatal("Reset must clear the previous couple")
	}
	if rep.Scenario.ROIKnown {
		t.Fatal("Reset must clear the ROI")
	}
}

func TestRunSequence(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 37)
	reports, err := e.RunSequence(15, func(i int) *frame.Frame {
		f, _ := s.Frame(i)
		return f
	}, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 15 {
		t.Fatalf("reports = %d, want 15", len(reports))
	}
	lats := Latencies(reports)
	if len(lats) != 15 || lats[0] <= 0 {
		t.Fatalf("latency series wrong: %v", lats)
	}
	if _, err := e.RunSequence(0, nil, partition.Serial()); err == nil {
		t.Fatal("zero-length sequence accepted")
	}
}

func TestTaskSeries(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 41)
	reports, err := e.RunSequence(20, func(i int) *frame.Frame {
		f, _ := s.Frame(i)
		return f
	}, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	vals, idx := TaskSeries(reports, tasks.NameMKXExt)
	if len(vals) != 20 || len(idx) != 20 {
		t.Fatalf("MKX runs every frame: got %d samples", len(vals))
	}
	enhVals, _ := TaskSeries(reports, tasks.NameENH)
	if len(enhVals) >= 20 {
		t.Fatal("ENH must not run on every frame (first frame cannot register)")
	}
}

func TestReportHelpers(t *testing.T) {
	r := Report{Execs: []TaskExec{{Task: tasks.NameENH, Ms: 24}}}
	if !r.Ran(tasks.NameENH) || r.Ran(tasks.NameZOOM) {
		t.Fatal("Ran wrong")
	}
	if r.TaskMs(tasks.NameENH) != 24 || r.TaskMs(tasks.NameZOOM) != 0 {
		t.Fatal("TaskMs wrong")
	}
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// flowIdx converts a scenario index back for assertions without importing
// flowgraph in every helper.
func flowIdx(i int) struct {
	RDGOn, ROIKnown, RegSuccess bool
} {
	return struct{ RDGOn, ROIKnown, RegSuccess bool }{
		RDGOn: i&4 != 0, ROIKnown: i&2 != 0, RegSuccess: i&1 != 0,
	}
}

func TestRealStripingIdenticalReports(t *testing.T) {
	seq := testSeq(t, 616)
	ea := stripedEngine(t, testConfig(), 1)
	eb := stripedEngine(t, testConfig(), 2)
	m := partition.Serial().With(tasks.NameRDGFull, 2).With(tasks.NameRDGROI, 2)
	for i := 0; i < 15; i++ {
		f, _ := seq.Frame(i)
		ra, err := ea.Process(f, m)
		if err != nil {
			t.Fatal(err)
		}
		rb, err := eb.Process(f, m)
		if err != nil {
			t.Fatal(err)
		}
		if ra.LatencyMs != rb.LatencyMs {
			t.Fatalf("frame %d: latency differs %v vs %v", i, ra.LatencyMs, rb.LatencyMs)
		}
		if ra.Scenario != rb.Scenario || ra.Candidates != rb.Candidates {
			t.Fatalf("frame %d: analysis outcome differs", i)
		}
	}
}

// TestExecOrderMatchesFlowGraph: the execution order pipeline.go keeps as
// code is the flow graph's — for every scenario, a processed frame's task
// records follow Scenario.ActiveTasks.
func TestExecOrderMatchesFlowGraph(t *testing.T) {
	cfg, frames := servedFrames(t, 5, 128, 128, 240)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[flowgraph.Scenario]int{}
	for i, f := range frames {
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		want := rep.Scenario.ActiveTasks()
		got := make([]tasks.Name, len(rep.Execs))
		for j, ex := range rep.Execs {
			got[j] = ex.Task
		}
		if !slices.Equal(got, want) {
			t.Fatalf("frame %d (%v): executed %v, flow graph %v", i, rep.Scenario, got, want)
		}
		seen[rep.Scenario]++
	}
	t.Logf("scenarios seen: %v", seen)
	if len(seen) != len(flowgraph.AllScenarios()) {
		t.Fatalf("%d of %d scenarios exercised: %v", len(seen), len(flowgraph.AllScenarios()), seen)
	}
}
