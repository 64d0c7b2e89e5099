package flowgraph

import (
	"strings"
	"testing"
)

func TestDOTWorstCase(t *testing.T) {
	out, err := WorstCase().DOT(PaperFrameKB, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"digraph triplec",
		`"RDG_FULL" -> "MKX_EXT" [label="150 MB/s"]`,
		`"ZOOM" -> "OUTPUT" [label="120 MB/s"]`,
		"rankdir=LR",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("DOT missing %q:\n%s", want, out)
		}
	}
}

func TestDOTBestCaseOmitsSkippedTasks(t *testing.T) {
	out, err := BestCase().DOT(PaperFrameKB, 30)
	if err != nil {
		t.Fatal(err)
	}
	for _, absent := range []string{"RDG_FULL", "ENH", "ZOOM"} {
		if strings.Contains(out, absent) {
			t.Fatalf("best-case DOT must omit %s:\n%s", absent, out)
		}
	}
}

func TestDOTInvalidFrame(t *testing.T) {
	if _, err := WorstCase().DOT(0, 30); err == nil {
		t.Fatal("zero frameKB accepted")
	}
}

func TestDOTBalancedBraces(t *testing.T) {
	for _, s := range AllScenarios() {
		out, err := s.DOT(PaperFrameKB, 30)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Count(out, "{") != strings.Count(out, "}") {
			t.Fatalf("unbalanced braces for %v", s)
		}
	}
}
