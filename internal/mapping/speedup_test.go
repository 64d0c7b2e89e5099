package mapping

import (
	"math"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

// stageReport fabricates a report with the given front/back stage times and
// per-frame memory traffic.
func stageReport(s flowgraph.Scenario, frontMs, backMs, memBytes float64) pipeline.Report {
	rep := pipeline.Report{Scenario: s}
	rep.Execs = append(rep.Execs, pipeline.TaskExec{
		Task: tasks.NameDetect, Ms: frontMs,
		Cost: platform.Cost{MemBytes: memBytes},
	})
	if backMs > 0 {
		rep.Execs = append(rep.Execs, pipeline.TaskExec{Task: tasks.NameENH, Ms: backMs})
	}
	rep.LatencyMs = frontMs + backMs
	return rep
}

func fullScenario() flowgraph.Scenario {
	return flowgraph.Scenario{RDGOn: true, ROIKnown: true, RegSuccess: true}
}

// The recurrence by hand: F=[2,2,2], B=[1,1,1] gives makespan 7 (fronts
// pack back to back, each back rides one slot behind).
func TestTimelineRecurrenceHand(t *testing.T) {
	reps := []pipeline.Report{
		stageReport(fullScenario(), 2, 1, 0),
		stageReport(fullScenario(), 2, 1, 0),
		stageReport(fullScenario(), 2, 1, 0),
	}
	tl := MeasureTimeline(reps)
	if tl.SerialMs != 9 {
		t.Fatalf("serial = %v, want 9", tl.SerialMs)
	}
	if tl.MakespanMs != 7 {
		t.Fatalf("makespan = %v, want 7", tl.MakespanMs)
	}
	if got, want := tl.Speedup(), 9.0/7.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("speedup = %v, want %v", got, want)
	}
}

// A perfectly balanced long pipeline approaches the two-stage bound of 2x
// but never exceeds it; the window-2 recurrence must respect both.
func TestTimelineBalancedApproachesTwo(t *testing.T) {
	var reps []pipeline.Report
	for i := 0; i < 200; i++ {
		reps = append(reps, stageReport(fullScenario(), 5, 5, 0))
	}
	tl := MeasureTimeline(reps)
	sp := tl.Speedup()
	if sp <= 1.9 || sp > 2 {
		t.Fatalf("balanced 200-frame speedup = %v, want in (1.9, 2]", sp)
	}
}

// A back-less sequence (registration always failing) pipelines nothing.
func TestTimelineFrontOnly(t *testing.T) {
	var reps []pipeline.Report
	for i := 0; i < 10; i++ {
		reps = append(reps, stageReport(flowgraph.Scenario{}, 4, 0, 0))
	}
	tl := MeasureTimeline(reps)
	if tl.Speedup() != 1 {
		t.Fatalf("front-only speedup = %v, want exactly 1", tl.Speedup())
	}
}

func TestPredictBalancedAndMemBound(t *testing.T) {
	arch := platform.Blackford()
	var reps []pipeline.Report
	for i := 0; i < 20; i++ {
		reps = append(reps, stageReport(fullScenario(), 5, 5, 0))
	}
	est, err := Predict(reps, arch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Speedup-2) > 1e-9 {
		t.Fatalf("balanced estimate = %v, want 2", est.Speedup)
	}
	if est.MemBoundFrac != 0 {
		t.Fatalf("mem-bound fraction = %v with no traffic", est.MemBoundFrac)
	}

	// Saturating traffic: 1 ms of compute per stage but ~10 ms of bus
	// drain per frame — the roofline must cap the estimate below 1.
	traffic := arch.MemBWGBs * 1e9 * 10e-3
	reps = reps[:0]
	for i := 0; i < 20; i++ {
		reps = append(reps, stageReport(fullScenario(), 1, 1, traffic))
	}
	est, err = Predict(reps, arch)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(est.Speedup-0.2) > 1e-9 {
		t.Fatalf("mem-bound estimate = %v, want 0.2", est.Speedup)
	}
	if est.MemBoundFrac != 1 {
		t.Fatalf("mem-bound fraction = %v, want 1", est.MemBoundFrac)
	}
}

func TestPredictValidation(t *testing.T) {
	if _, err := Predict(nil, platform.Blackford()); err == nil {
		t.Fatal("empty reports accepted")
	}
	arch := platform.Blackford()
	arch.MemBWGBs = 0
	if _, err := Predict([]pipeline.Report{stageReport(fullScenario(), 1, 1, 0)}, arch); err == nil {
		t.Fatal("zero-bandwidth arch accepted")
	}
}

// The acceptance property behind BENCH_6: on a real synthetic run the
// scenario-weighted analytical estimate must land within 25% of the
// measured (timeline) speedup.
func TestPredictWithinQuarterOfMeasured(t *testing.T) {
	cfg := synth.DefaultConfig(29)
	cfg.Width, cfg.Height = 128, 128
	cfg.MarkerSpacing = 36
	cfg.NoiseSigma = 250
	cfg.QuantumGain = 0
	cfg.ClutterRate = 2
	cfg.DropoutEvery = 0
	seq, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipeline.New(pipeline.Config{
		Width: 128, Height: 128, MarkerSpacing: 36, Arch: platform.Blackford(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.RunSequence(80, func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	est, err := Predict(reports, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	measured := MeasureTimeline(reports).Speedup()
	if measured <= 1 {
		t.Fatalf("measured speedup %v, want > 1 on the standard sequence", measured)
	}
	relErr := math.Abs(est.Speedup-measured) / measured
	if relErr > 0.25 {
		t.Fatalf("estimate %v vs measured %v: relative error %.1f%% > 25%%",
			est.Speedup, measured, relErr*100)
	}
}
