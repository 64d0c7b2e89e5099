package sched

import (
	"math"
	"strings"
	"testing"

	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

func sampleReport() pipeline.Report {
	return pipeline.Report{
		Execs: []pipeline.TaskExec{
			{Task: tasks.NameDetect, Stripes: 1, Ms: 1},
			{Task: tasks.NameRDGFull, Stripes: 4, Ms: 10},
			{Task: tasks.NameMKXExt, Stripes: 1, Ms: 2},
			{Task: tasks.NameENH, Stripes: 2, Ms: 12},
		},
		LatencyMs: 25,
	}
}

func TestBuildTimelineBasics(t *testing.T) {
	tl, err := BuildTimeline(sampleReport(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.MakespanMs != 25 {
		t.Fatalf("makespan = %v, want 25", tl.MakespanMs)
	}
	// 1 + 4 + 1 + 2 intervals.
	if len(tl.Intervals) != 8 {
		t.Fatalf("intervals = %d, want 8", len(tl.Intervals))
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
	// The RDG stripes must be concurrent on distinct cores.
	var rdgStart []float64
	cores := map[int]bool{}
	for _, iv := range tl.Intervals {
		if iv.Task == tasks.NameRDGFull {
			rdgStart = append(rdgStart, iv.StartMs)
			cores[iv.Core] = true
		}
	}
	if len(cores) != 4 {
		t.Fatalf("RDG stripes on %d cores, want 4", len(cores))
	}
	for _, s := range rdgStart {
		if s != rdgStart[0] {
			t.Fatal("stripes must start together")
		}
	}
}

func TestBuildTimelineValidation(t *testing.T) {
	if _, err := BuildTimeline(sampleReport(), 0, 0); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := BuildTimeline(sampleReport(), 8, 9); err == nil {
		t.Fatal("base core out of range accepted")
	}
	// 4-stripe task does not fit from base core 6 on an 8-core machine.
	if _, err := BuildTimeline(sampleReport(), 8, 6); err == nil {
		t.Fatal("overflowing stripe placement accepted")
	}
}

func TestTimelineBusyAndUtilization(t *testing.T) {
	tl, err := BuildTimeline(sampleReport(), 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Core 0 hosts every task's stripe 0: 1 + 10 + 2 + 12 = 25 ms.
	if got := tl.BusyMs(0); math.Abs(got-25) > 1e-9 {
		t.Fatalf("core 0 busy = %v, want 25", got)
	}
	// Core 3 hosts only the 4th RDG stripe.
	if got := tl.BusyMs(3); math.Abs(got-10) > 1e-9 {
		t.Fatalf("core 3 busy = %v, want 10", got)
	}
	// Total busy = 1 + 40 + 2 + 24 = 67 core-ms over 8 * 25 = 200.
	if got := tl.Utilization(); math.Abs(got-67.0/200) > 1e-9 {
		t.Fatalf("utilization = %v, want %v", got, 67.0/200)
	}
}

func TestTimelineValidateCatchesOverlap(t *testing.T) {
	tl := Timeline{
		NumCores:   2,
		MakespanMs: 10,
		Intervals: []Interval{
			{Task: tasks.NameENH, Core: 0, StartMs: 0, EndMs: 6},
			{Task: tasks.NameZOOM, Core: 0, StartMs: 5, EndMs: 9},
		},
	}
	if tl.Validate() == nil {
		t.Fatal("overlap not caught")
	}
	bad := Timeline{NumCores: 1, Intervals: []Interval{{Core: 5}}}
	if bad.Validate() == nil {
		t.Fatal("out-of-machine core not caught")
	}
	inv := Timeline{NumCores: 1, Intervals: []Interval{{Core: 0, StartMs: 5, EndMs: 1}}}
	if inv.Validate() == nil {
		t.Fatal("inverted interval not caught")
	}
}

func TestTimelineRender(t *testing.T) {
	tl, err := BuildTimeline(sampleReport(), 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	out := tl.Render(40)
	if !strings.Contains(out, "core 0") || !strings.Contains(out, "R") {
		t.Fatalf("render missing content:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4+2 { // header + 4 cores + legend
		t.Fatalf("render lines = %d:\n%s", len(lines), out)
	}
}

func TestTimelineBaseCoreOffset(t *testing.T) {
	tl, err := BuildTimeline(sampleReport(), 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, iv := range tl.Intervals {
		if iv.Core < 4 {
			t.Fatalf("interval on core %d despite base 4", iv.Core)
		}
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineFromRealRun(t *testing.T) {
	seq := synthSeq(t, 777)
	eng := newEngine(t)
	m := partition.Serial().With(tasks.NameRDGFull, 4).With(tasks.NameENH, 2)
	var sawUtil bool
	for i := 0; i < 10; i++ {
		f, _ := seq.Frame(i)
		rep, err := eng.Process(f, m)
		if err != nil {
			t.Fatal(err)
		}
		tl, err := BuildTimeline(rep, 8, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := tl.Validate(); err != nil {
			t.Fatal(err)
		}
		if math.Abs(tl.MakespanMs-rep.LatencyMs) > 1e-9 {
			t.Fatalf("makespan %v != latency %v", tl.MakespanMs, rep.LatencyMs)
		}
		if u := tl.Utilization(); u > 0 && u < 1 {
			sawUtil = true
		}
	}
	if !sawUtil {
		t.Fatal("utilization never in (0,1)")
	}
}

func TestTimelineEmptyReport(t *testing.T) {
	tl, err := BuildTimeline(pipeline.Report{}, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Utilization() != 0 || tl.MakespanMs != 0 {
		t.Fatal("empty report must give zero timeline")
	}
	if err := tl.Validate(); err != nil {
		t.Fatal(err)
	}
}
