package flowgraph

import (
	"math"
	"strings"
	"testing"

	"triplec/internal/tasks"
)

func TestAllScenariosCount(t *testing.T) {
	scs := AllScenarios()
	if len(scs) != 8 {
		t.Fatalf("scenarios = %d, want 8 (paper §5.2)", len(scs))
	}
	seen := map[Scenario]bool{}
	for _, s := range scs {
		if seen[s] {
			t.Fatalf("duplicate scenario %v", s)
		}
		seen[s] = true
	}
}

func TestScenarioIndexRoundTrip(t *testing.T) {
	for _, s := range AllScenarios() {
		if FromIndex(s.Index()) != s {
			t.Fatalf("index round trip failed for %v", s)
		}
	}
	idx := map[int]bool{}
	for _, s := range AllScenarios() {
		i := s.Index()
		if i < 0 || i > 7 || idx[i] {
			t.Fatalf("bad index %d for %v", i, s)
		}
		idx[i] = true
	}
}

func TestActiveTasksBaseline(t *testing.T) {
	s := Scenario{} // everything off
	got := s.ActiveTasks()
	want := []tasks.Name{tasks.NameDetect, tasks.NameMKXExt, tasks.NameCPLSSel, tasks.NameREG}
	if len(got) != len(want) {
		t.Fatalf("ActiveTasks = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ActiveTasks = %v, want %v", got, want)
		}
	}
}

func TestActiveTasksFull(t *testing.T) {
	s := WorstCase()
	got := s.ActiveTasks()
	if len(got) != 9 {
		t.Fatalf("worst case must run 9 tasks, got %v", got)
	}
	if got[1] != tasks.NameRDGFull {
		t.Fatalf("worst case must use RDG FULL, got %v", got[1])
	}
}

func TestRDGTaskVariant(t *testing.T) {
	if (Scenario{RDGOn: true, ROIKnown: true}).RDGTask() != tasks.NameRDGROI {
		t.Fatal("ROI-known scenario must use RDG ROI")
	}
	if (Scenario{RDGOn: true}).RDGTask() != tasks.NameRDGFull {
		t.Fatal("full scenario must use RDG FULL")
	}
	if (Scenario{}).RDGTask() != "" {
		t.Fatal("RDG off must return empty name")
	}
}

// TestFig2Labels reproduces the bandwidth labels of Fig. 2 at the paper's
// geometry: 60, 150, 75, 15, 30, 120 MB/s.
func TestFig2Labels(t *testing.T) {
	s := WorstCase()
	edges, err := s.Edges(PaperFrameKB)
	if err != nil {
		t.Fatal(err)
	}
	find := func(from, to tasks.Name) float64 {
		for _, e := range edges {
			if e.From == from && e.To == to {
				return e.MBs(30)
			}
		}
		t.Fatalf("edge %s->%s missing", from, to)
		return 0
	}
	checks := []struct {
		from, to tasks.Name
		want     float64
	}{
		{NodeInput, tasks.NameRDGFull, 60},
		{tasks.NameRDGFull, tasks.NameMKXExt, 150},
		{tasks.NameMKXExt, tasks.NameCPLSSel, 75},
		{tasks.NameCPLSSel, tasks.NameREG, 15},
		{tasks.NameREG, tasks.NameROIEst, 15},
		{NodeInput, tasks.NameENH, 60},
		{tasks.NameENH, tasks.NameZOOM, 30},
		{tasks.NameZOOM, NodeOutput, 120},
	}
	for _, c := range checks {
		if got := find(c.from, c.to); math.Abs(got-c.want) > 0.01 {
			t.Fatalf("%s->%s = %.1f MB/s, want %.1f", c.from, c.to, got, c.want)
		}
	}
}

func TestRDGOffUsesSmallMKXInput(t *testing.T) {
	s := Scenario{} // RDG off
	edges, err := s.Edges(PaperFrameKB)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range edges {
		if e.To == tasks.NameMKXExt {
			if e.KB != 512 {
				t.Fatalf("MKX input edge = %d KB, want 512 (Table 1, RDG off)", e.KB)
			}
			return
		}
	}
	t.Fatal("MKX input edge missing")
}

func TestWorstCaseHasHighestBandwidth(t *testing.T) {
	sorted, err := SortedByBandwidth(PaperFrameKB, 30)
	if err != nil {
		t.Fatal(err)
	}
	if sorted[0] != WorstCase() {
		t.Fatalf("highest-bandwidth scenario = %v, want worst case", sorted[0])
	}
	if sorted[len(sorted)-1] != BestCase() {
		t.Fatalf("lowest-bandwidth scenario = %v, want best case", sorted[len(sorted)-1])
	}
}

func TestBestCaseMuchCheaperThanWorst(t *testing.T) {
	worst, err := WorstCase().TotalMBs(PaperFrameKB, 30)
	if err != nil {
		t.Fatal(err)
	}
	best, err := BestCase().TotalMBs(PaperFrameKB, 30)
	if err != nil {
		t.Fatal(err)
	}
	if best >= worst/3 {
		t.Fatalf("best case %.1f MB/s not clearly cheaper than worst %.1f MB/s", best, worst)
	}
}

func TestEdgesInvalidFrame(t *testing.T) {
	if _, err := (Scenario{}).Edges(0); err == nil {
		t.Fatal("zero frameKB accepted")
	}
}

func TestValidateAllScenarios(t *testing.T) {
	if err := Validate(PaperFrameKB); err != nil {
		t.Fatal(err)
	}
	if err := Validate(32); err != nil { // tiny geometry must also hold
		t.Fatal(err)
	}
}

func TestRenderContainsLabels(t *testing.T) {
	out, err := WorstCase().Render(PaperFrameKB, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"150.0 MB/s", "120.0 MB/s", "60.0 MB/s", "RDG_FULL", "ZOOM"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestScenarioString(t *testing.T) {
	s := Scenario{RDGOn: true, ROIKnown: false, RegSuccess: true}
	if got := s.String(); !strings.Contains(got, "rdg=on") || !strings.Contains(got, "gran=full") || !strings.Contains(got, "reg=ok") {
		t.Fatalf("String() = %q", got)
	}
}

func TestROIScenarioSameEdgeSizes(t *testing.T) {
	// Table 1: RDG ROI has the same input/output sizes as RDG FULL, so the
	// inter-task bandwidth labels match; only the intermediate differs.
	full, _ := Scenario{RDGOn: true}.Edges(PaperFrameKB)
	roi, _ := Scenario{RDGOn: true, ROIKnown: true}.Edges(PaperFrameKB)
	if len(full) != len(roi) {
		t.Fatalf("edge count differs: %d vs %d", len(full), len(roi))
	}
	for i := range full {
		if full[i].KB != roi[i].KB {
			t.Fatalf("edge %d size differs: %d vs %d", i, full[i].KB, roi[i].KB)
		}
	}
}
