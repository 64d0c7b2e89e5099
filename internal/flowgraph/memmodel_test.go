package flowgraph

import (
	"testing"
	"testing/quick"

	"triplec/internal/tasks"
)

func TestFrameKBPaperGeometry(t *testing.T) {
	if got := FrameKB(1024, 1024); got != 2048 {
		t.Fatalf("FrameKB(1024,1024) = %d, want 2048", got)
	}
	if got := FrameKB(512, 512); got != 512 {
		t.Fatalf("FrameKB(512,512) = %d, want 512", got)
	}
}

// TestTable1Verbatim checks every number of the paper's Table 1 at the
// 1024x1024 geometry.
func TestTable1Verbatim(t *testing.T) {
	rows, err := Table(PaperFrameKB)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		task         tasks.Name
		rdg          bool
		in, mid, out int
	}{
		{tasks.NameRDGFull, true, 2048, 7168, 5120},
		{tasks.NameRDGROI, true, 2048, 5120, 5120},
		{tasks.NameMKXExt, false, 512, 512, 2560},
		{tasks.NameMKXExt, true, 4608, 512, 2560},
		{tasks.NameENH, false, 2048, 8192, 1024},
		{tasks.NameZOOM, false, 1024, 4096, 4096},
	}
	if len(rows) != len(want) {
		t.Fatalf("rows = %d, want %d", len(rows), len(want))
	}
	for i, w := range want {
		r := rows[i]
		if r.Task != w.task || r.RDGSelected != w.rdg {
			t.Fatalf("row %d: got %s/%v, want %s/%v", i, r.Task, r.RDGSelected, w.task, w.rdg)
		}
		if r.InputKB != w.in || r.IntermediateKB != w.mid || r.OutputKB != w.out {
			t.Fatalf("row %d (%s): got %d/%d/%d, want %d/%d/%d",
				i, r.Task, r.InputKB, r.IntermediateKB, r.OutputKB, w.in, w.mid, w.out)
		}
	}
}

func TestLookupFeatureTasksNegligible(t *testing.T) {
	for _, task := range []tasks.Name{
		tasks.NameCPLSSel, tasks.NameREG, tasks.NameROIEst, tasks.NameGWExt, tasks.NameDetect,
	} {
		r, err := Lookup(task, false, PaperFrameKB)
		if err != nil {
			t.Fatalf("%s: %v", task, err)
		}
		if r.TotalKB() != 0 {
			t.Fatalf("%s: footprint %d KB, want 0", task, r.TotalKB())
		}
	}
}

func TestLookupUnknownTask(t *testing.T) {
	if _, err := Lookup(tasks.Name("NOPE"), false, 2048); err == nil {
		t.Fatal("unknown task accepted")
	}
}

func TestLookupInvalidFrame(t *testing.T) {
	if _, err := Lookup(tasks.NameENH, false, 0); err == nil {
		t.Fatal("zero frameKB accepted")
	}
}

func TestMKXSwitchDependence(t *testing.T) {
	off, _ := Lookup(tasks.NameMKXExt, false, PaperFrameKB)
	on, _ := Lookup(tasks.NameMKXExt, true, PaperFrameKB)
	if on.InputKB <= off.InputKB {
		t.Fatal("MKX input must grow when RDG is selected")
	}
	if on.OutputKB != off.OutputKB || on.IntermediateKB != off.IntermediateKB {
		t.Fatal("only the MKX input depends on the switch")
	}
}

func TestScalesWithGeometry(t *testing.T) {
	small, _ := Lookup(tasks.NameRDGFull, true, 512)
	big, _ := Lookup(tasks.NameRDGFull, true, 2048)
	if big.TotalKB() != 4*small.TotalKB() {
		t.Fatalf("footprint must scale linearly: %d vs %d", big.TotalKB(), small.TotalKB())
	}
}

func TestTotalKB(t *testing.T) {
	r := Requirement{InputKB: 1, IntermediateKB: 2, OutputKB: 3}
	if r.TotalKB() != 6 {
		t.Fatal("TotalKB wrong")
	}
}

// TestIntraTaskOverflow reproduces the paper's Section 5 observation: at
// 1024x1024 against the 4 MB L2, exactly RDG FULL (and ROI), ENH and ZOOM
// overflow; MKX does not.
func TestIntraTaskOverflow(t *testing.T) {
	over, err := IntraTaskOverflowKB(PaperFrameKB, 4096)
	if err != nil {
		t.Fatal(err)
	}
	for _, mustOverflow := range []tasks.Name{tasks.NameRDGFull, tasks.NameENH, tasks.NameZOOM} {
		if _, ok := over[mustOverflow]; !ok {
			t.Fatalf("%s must overflow the 4 MB L2 (paper Section 5)", mustOverflow)
		}
	}
	// RDG FULL: 14,336 KB total - 4,096 KB = 10,240 KB overflow.
	if over[tasks.NameRDGFull] != 2048+7168+5120-4096 {
		t.Fatalf("RDG FULL overflow = %d", over[tasks.NameRDGFull])
	}
}

func TestIntraTaskOverflowSmallFrames(t *testing.T) {
	// At 128x128 (32 KB frames) nothing overflows a 4 MB cache.
	over, err := IntraTaskOverflowKB(FrameKB(128, 128), 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(over) != 0 {
		t.Fatalf("small frames must not overflow: %v", over)
	}
}

func TestIntraTaskOverflowInvalidCache(t *testing.T) {
	if _, err := IntraTaskOverflowKB(2048, 0); err == nil {
		t.Fatal("zero cache accepted")
	}
}

// Property: pixel-task footprints scale linearly with the frame size, and
// the Table 1 relations (MKX input grows with RDG selected, intermediate
// dominates for RDG FULL and ENH) hold at every geometry.
func TestPropertyFootprintScaling(t *testing.T) {
	f := func(raw uint16) bool {
		frameKB := int(raw)%8192 + 16
		for _, task := range []tasks.Name{
			tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameENH, tasks.NameZOOM,
		} {
			small, err := Lookup(task, true, frameKB)
			if err != nil {
				return false
			}
			big, err := Lookup(task, true, frameKB*2)
			if err != nil {
				return false
			}
			// The per-buffer KB rounding allows a small wobble.
			if d := big.TotalKB() - 2*small.TotalKB(); d > 2 || d < -2 {
				return false
			}
		}
		off, err := Lookup(tasks.NameMKXExt, false, frameKB)
		if err != nil {
			return false
		}
		on, err := Lookup(tasks.NameMKXExt, true, frameKB)
		if err != nil {
			return false
		}
		return on.InputKB > off.InputKB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
