package flowgraph

import (
	"math"
	"strings"
	"testing"

	"triplec/internal/platform"
	"triplec/internal/tasks"
)

const (
	paperFrame = PaperFrameKB // 2048 KB
	paperL2    = 4096         // 4 MB in KB
)

func TestSubtasksPixelTasks(t *testing.T) {
	for _, task := range []tasks.Name{
		tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameMKXExt, tasks.NameENH, tasks.NameZOOM,
	} {
		subs, err := Subtasks(task, true, paperFrame)
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if len(subs) == 0 {
			t.Fatalf("%s: no subtasks", task)
		}
	}
}

func TestSubtasksFeatureTasksNil(t *testing.T) {
	for _, task := range []tasks.Name{
		tasks.NameCPLSSel, tasks.NameREG, tasks.NameROIEst, tasks.NameGWExt, tasks.NameDetect,
	} {
		subs, err := Subtasks(task, false, paperFrame)
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if subs != nil {
			t.Fatalf("%s: expected nil subtasks", task)
		}
	}
}

func TestSubtasksSizesMatchTable1(t *testing.T) {
	subs, err := Subtasks(tasks.NameRDGFull, true, paperFrame)
	if err != nil {
		t.Fatal(err)
	}
	if subs[0].Accesses[0].SizeKB != 2048 || subs[0].Accesses[1].SizeKB != 7168 {
		t.Fatalf("RDG FULL smooth pass sizes: %+v", subs[0].Accesses)
	}
	if subs[1].Accesses[1].SizeKB != 5120 {
		t.Fatalf("RDG FULL output size: %+v", subs[1].Accesses)
	}
}

// TestPaperOverflowTasks: at the paper geometry, RDG FULL, ENH and ZOOM
// initiate intra-task traffic well beyond their compulsory input/output
// (their footprints exceed the 4 MB L2), while MKX stays near compulsory.
func TestPaperOverflowTasks(t *testing.T) {
	rdg, err := IntraTaskKB(tasks.NameRDGFull, true, paperFrame, paperL2)
	if err != nil {
		t.Fatal(err)
	}
	// Compulsory-only would be in 2048 + out 2*5120; overflow adds the
	// intermediate bounce.
	if rdg <= 2048+2*5120 {
		t.Fatalf("RDG FULL traffic %d KB does not show overflow", rdg)
	}
	mkxOver, err := IntraTaskKB(tasks.NameMKXExt, false, paperFrame, paperL2)
	if err != nil {
		t.Fatal(err)
	}
	// MKX (RDG off) footprint 3,584 KB fits in 4 MB: intermediate stays
	// resident.
	wantMKX := 512 + (512 + 512) + 0 + (2560 + 2560)
	if mkxOver != wantMKX {
		t.Fatalf("MKX traffic = %d KB, want %d (fits in L2)", mkxOver, wantMKX)
	}
}

func TestIntraTaskROIVariantCheaper(t *testing.T) {
	full, _ := IntraTaskKB(tasks.NameRDGFull, true, paperFrame, paperL2)
	roi, _ := IntraTaskKB(tasks.NameRDGROI, true, paperFrame, paperL2)
	if roi >= full {
		t.Fatalf("RDG ROI traffic %d must be below FULL %d", roi, full)
	}
}

func TestIntraTaskSmallFramesNoOverflow(t *testing.T) {
	// 128x128 frames: every footprint fits; traffic equals compulsory
	// input + write-allocate output only.
	frameKB := 128 * 128 * 2 / 1024 // 32 KB
	got, err := IntraTaskKB(tasks.NameRDGFull, true, frameKB, paperL2)
	if err != nil {
		t.Fatal(err)
	}
	req, _ := Lookup(tasks.NameRDGFull, true, frameKB)
	compulsory := req.InputKB + 2*req.IntermediateKB + 2*req.OutputKB
	if got != compulsory {
		t.Fatalf("small-frame traffic = %d, want compulsory %d", got, compulsory)
	}
}

func TestIntraTaskMBsScalesWithRate(t *testing.T) {
	a, _ := IntraTaskMBs(tasks.NameENH, false, paperFrame, paperL2, 30)
	b, _ := IntraTaskMBs(tasks.NameENH, false, paperFrame, paperL2, 60)
	if math.Abs(b-2*a) > 1e-9 {
		t.Fatalf("MB/s must scale with rate: %v vs %v", a, b)
	}
}

// TestAnalysisVsSimulator reproduces the paper's ~90% agreement between the
// bandwidth analysis and measurement: the occupation-model prediction must
// be within 20% of the cache-simulator replay for every pixel task, in both
// the overflow (paper geometry) and the fitting (small frame) regime.
func TestAnalysisVsSimulator(t *testing.T) {
	cfg := platform.CacheLevel{SizeBytes: paperL2 * 1024, LineBytes: 64, Assoc: 16}
	for _, frameKB := range []int{paperFrame, 128} {
		for _, task := range []tasks.Name{
			tasks.NameRDGFull, tasks.NameMKXExt, tasks.NameENH, tasks.NameZOOM,
		} {
			predicted, err := IntraTaskKB(task, true, frameKB, paperL2)
			if err != nil {
				t.Fatal(err)
			}
			measured, err := MeasureIntraTaskKB(task, true, frameKB, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if measured == 0 {
				t.Fatalf("%s@%d: simulator reported zero traffic", task, frameKB)
			}
			acc := 1 - math.Abs(float64(predicted-measured))/float64(measured)
			if acc < 0.80 {
				t.Fatalf("%s@%dKB: prediction %d KB vs measured %d KB (accuracy %.2f)",
					task, frameKB, predicted, measured, acc)
			}
		}
	}
}

func TestAnalyzeScenarioComposition(t *testing.T) {
	a, err := Analyze(WorstCase(), paperFrame, paperL2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if a.InterMBs <= 0 || a.IntraMBs <= 0 {
		t.Fatalf("worst case must show both traffic kinds: %+v", a)
	}
	if math.Abs(a.TotalMBs()-(a.InterMBs+a.IntraMBs)) > 1e-9 {
		t.Fatal("TotalMBs must be the sum")
	}
}

func TestAnalyzeAllOrdersWorstFirstWhenSorted(t *testing.T) {
	all, err := AnalyzeAll(paperFrame, paperL2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 8 {
		t.Fatalf("analyses = %d, want 8", len(all))
	}
	var worst, best Analysis
	for i, s := range AllScenarios() {
		if s == WorstCase() {
			worst = all[i]
		}
		if s == (Scenario{ROIKnown: true}) {
			best = all[i]
		}
	}
	if worst.TotalMBs() <= best.TotalMBs() {
		t.Fatalf("worst %.1f must exceed best %.1f", worst.TotalMBs(), best.TotalMBs())
	}
}

func TestFig5Report(t *testing.T) {
	out, err := Fig5Report(paperFrame, paperL2, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"RDG FULL", "EVICTED", "smooth+hessian", "total"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fig5 report missing %q:\n%s", want, out)
		}
	}
}

func TestFig5ReportNoOverflowOnSmallFrames(t *testing.T) {
	out, err := Fig5Report(32, paperL2, 30)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(out, "EVICTED") {
		t.Fatalf("small frames must not evict:\n%s", out)
	}
}

// TestRejectsInvalidRateAndCache: every rated entry point refuses a frame
// rate that is not positive and finite, and every entry point that sizes
// against the cache refuses a zero capacity, instead of printing negative
// or NaN bandwidths.
func TestRejectsInvalidRateAndCache(t *testing.T) {
	s := WorstCase()
	for _, tc := range []struct {
		name    string
		cacheKB int
		rate    float64
	}{
		{"rate -30", paperL2, -30},
		{"rate 0", paperL2, 0},
		{"rate NaN", paperL2, math.NaN()},
		{"rate +Inf", paperL2, math.Inf(1)},
		{"cachekb 0", 0, 30},
	} {
		calls := map[string]func() error{
			"Analyze": func() error { _, err := Analyze(s, paperFrame, tc.cacheKB, tc.rate); return err },
			"IntraTaskMBs": func() error {
				_, err := IntraTaskMBs(tasks.NameRDGFull, true, paperFrame, tc.cacheKB, tc.rate)
				return err
			},
			"Fig5Report": func() error { _, err := Fig5Report(paperFrame, tc.cacheKB, tc.rate); return err },
		}
		if tc.cacheKB > 0 {
			calls["Render"] = func() error { _, err := s.Render(paperFrame, tc.rate); return err }
			calls["DOT"] = func() error { _, err := s.DOT(paperFrame, tc.rate); return err }
			calls["TotalMBs"] = func() error { _, err := s.TotalMBs(paperFrame, tc.rate); return err }
			calls["SortedByBandwidth"] = func() error { _, err := SortedByBandwidth(paperFrame, tc.rate); return err }
		}
		for name, call := range calls {
			if err := call(); err == nil {
				t.Errorf("%s: %s accepted it", tc.name, name)
			}
		}
	}
}

func TestMeasureFeatureTaskZero(t *testing.T) {
	cfg := platform.CacheLevel{SizeBytes: 1 << 20, LineBytes: 64, Assoc: 0}
	kb, err := MeasureIntraTaskKB(tasks.NameREG, false, paperFrame, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if kb != 0 {
		t.Fatalf("feature task traffic = %d, want 0", kb)
	}
}

func TestMeasureInvalidCache(t *testing.T) {
	if _, err := MeasureIntraTaskKB(tasks.NameENH, false, paperFrame, platform.CacheLevel{}); err == nil {
		t.Fatal("invalid cache config accepted")
	}
}

func TestMaxConcurrentInstances(t *testing.T) {
	a, err := Analyze(WorstCase(), paperFrame, paperL2, 30)
	if err != nil {
		t.Fatal(err)
	}
	n, err := MaxConcurrentInstances(a, 29)
	if err != nil {
		t.Fatal(err)
	}
	if n < 2 {
		t.Fatalf("the 29 GB/s bus must sustain at least 2 instances, got %d", n)
	}
	// Monotone in capacity.
	n2, err := MaxConcurrentInstances(a, 58)
	if err != nil {
		t.Fatal(err)
	}
	if n2 < 2*n-1 {
		t.Fatalf("doubling capacity must roughly double instances: %d -> %d", n, n2)
	}
	if _, err := MaxConcurrentInstances(Analysis{}, 29); err == nil {
		t.Fatal("zero-demand scenario accepted")
	}
}

// TestCheckFeasible: a scenario is feasible on a memory system when it
// sustains at least one instance.
func TestCheckFeasible(t *testing.T) {
	a, err := Analyze(WorstCase(), paperFrame, paperL2, 30)
	if err != nil {
		t.Fatal(err)
	}
	// The Blackford memory system (29 GB/s) easily sustains one instance.
	if n, err := MaxConcurrentInstances(a, 29); err != nil || n < 1 {
		t.Fatalf("worst case must be feasible on 29 GB/s: %d instances (err %v)", n, err)
	}
	// A 1 MB/s memory cannot sustain a single instance.
	if n, err := MaxConcurrentInstances(a, 0.001); err != nil || n != 0 {
		t.Fatalf("1 MB/s memory sustains %d instances (err %v), want 0", n, err)
	}
	if _, err := MaxConcurrentInstances(a, 0); err == nil {
		t.Fatal("zero capacity accepted")
	}
}
