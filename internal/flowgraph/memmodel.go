// The paper's Table 1: the per-task memory requirements (input,
// intermediate and output buffers) of the feature-enhancement application,
// extracted from the reference implementation. Only operations on pixel
// arrays are counted; tasks that operate on extracted feature data (CPLS
// SEL, REG, ROI EST, GW EXT) are negligible in terms of memory consumption,
// exactly as the paper notes.
//
// Requirements are expressed as ratios of the frame buffer size (the task
// table's Ratios, tasks.Specs), so the model scales with geometry; at the paper's 1024x1024 x 2 B/px geometry
// (frame = 2,048 KB) the table reproduces Table 1 verbatim.

package flowgraph

import (
	"fmt"

	"triplec/internal/tasks"
)

// PaperFrameKB is the frame buffer size of the paper's geometry
// (1024x1024 x 2 B = 2,048 KB).
const PaperFrameKB = 2048

// Requirement is one row of Table 1.
type Requirement struct {
	Task           tasks.Name
	RDGSelected    bool // the "RDG select" column; only MKX EXT depends on it
	HasRDGVariants bool // true for MKX EXT, which appears once per switch state
	InputKB        int
	IntermediateKB int
	OutputKB       int
}

// TotalKB returns the task's total footprint.
func (r Requirement) TotalKB() int { return r.InputKB + r.IntermediateKB + r.OutputKB }

// mkxInputWithRDG is the MKX EXT input ratio when the ridge-detection task
// is selected: MKX then consumes the ridge candidate maps (Table 1: 4,608 KB).
const mkxInputWithRDG = 2.25

// Lookup returns the requirement of one task at the given frame size.
// rdgSelected only affects MKX EXT. Feature-level tasks return a zero-pixel
// requirement (a fixed few KB of feature lists, reported as 0 like Table 1
// omits them).
func Lookup(task tasks.Name, rdgSelected bool, frameKB int) (Requirement, error) {
	if frameKB <= 0 {
		return Requirement{}, fmt.Errorf("memmodel: frameKB must be positive, got %d", frameKB)
	}
	spec, ok := tasks.SpecOf(task)
	if !ok {
		return Requirement{}, fmt.Errorf("memmodel: unknown task %q", task)
	}
	// Feature-data tasks have zero ratios: negligible array traffic (paper
	// Section 5.1).
	r := spec.Ratios
	req := Requirement{Task: task, RDGSelected: rdgSelected, HasRDGVariants: task == tasks.NameMKXExt}
	if req.HasRDGVariants && rdgSelected {
		r[0] = mkxInputWithRDG
	}
	req.InputKB = scale(frameKB, r[0])
	req.IntermediateKB = scale(frameKB, r[1])
	req.OutputKB = scale(frameKB, r[2])
	return req, nil
}

func scale(frameKB int, ratio float64) int {
	return int(float64(frameKB)*ratio + 0.5)
}

// Table returns the full Table 1 for the given frame size: the four
// pixel-array tasks, with MKX EXT listed in both switch states, in the
// paper's row order (RDG FULL, RDG ROI, MKX off/on, ENH, ZOOM).
func Table(frameKB int) ([]Requirement, error) {
	var rows []Requirement
	type rowSpec struct {
		task tasks.Name
		rdg  bool
	}
	for _, spec := range []rowSpec{
		{tasks.NameRDGFull, true},
		{tasks.NameRDGROI, true},
		{tasks.NameMKXExt, false},
		{tasks.NameMKXExt, true},
		{tasks.NameENH, false},
		{tasks.NameZOOM, false},
	} {
		r, err := Lookup(spec.task, spec.rdg, frameKB)
		if err != nil {
			return nil, err
		}
		rows = append(rows, r)
	}
	return rows, nil
}
