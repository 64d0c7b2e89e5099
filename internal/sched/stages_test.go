package sched

import (
	"testing"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

// TestSplitStages: the pipelining estimate splits a report at the
// executor's stage cut, so ROI EST (which the next frame's analysis waits
// for) counts in the front stage.
func TestSplitStages(t *testing.T) {
	rep := pipeline.Report{Execs: []pipeline.TaskExec{
		{Task: tasks.NameDetect, Ms: 1},
		{Task: tasks.NameRDGFull, Ms: 40},
		{Task: tasks.NameMKXExt, Ms: 2},
		{Task: tasks.NameREG, Ms: 2},
		{Task: tasks.NameROIEst, Ms: 1},
		{Task: tasks.NameENH, Ms: 24},
		{Task: tasks.NameZOOM, Ms: 12},
	}}
	front, back := rep.StageMs()
	if front != 46 || back != 36 {
		t.Fatalf("StageMs = %v, %v; want 46, 36", front, back)
	}
}

func TestEstimatePipeliningInvariants(t *testing.T) {
	// A clean acquisition (no dropouts) so most frames run the full back
	// end and the overlap gain is visible.
	cfg := synth.DefaultConfig(909090)
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
	eng := newEngine(t)
	reports, err := eng.RunSequence(40, func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimatePipelining(reports)
	if err != nil {
		t.Fatal(err)
	}
	// Pipelining cannot be slower than serial: period <= latency.
	if est.AvgPeriodMs > est.AvgLatencyMs+1e-9 {
		t.Fatalf("period %v exceeds latency %v", est.AvgPeriodMs, est.AvgLatencyMs)
	}
	if est.SpeedupVsSerial < 1 {
		t.Fatalf("pipelined speedup %v below 1", est.SpeedupVsSerial)
	}
	// Frames with a real back end must show overlap gain — modest here
	// because the enhancement back end (ENH+ZOOM ~37 ms) dominates the
	// stage split; the estimate's value is exposing exactly that imbalance.
	if est.SpeedupVsSerial < 1.02 {
		t.Fatalf("expected measurable pipelining gain, got %v", est.SpeedupVsSerial)
	}
}

func TestEstimatePipeliningEmpty(t *testing.T) {
	if _, err := EstimatePipelining(nil); err == nil {
		t.Fatal("empty input accepted")
	}
}
