// The paper's Table 1: the per-task memory requirements (input,
// intermediate and output buffers) of the feature-enhancement application,
// extracted from the reference implementation. Only operations on pixel
// arrays are counted; tasks that operate on extracted feature data (CPLS
// SEL, REG, ROI EST, GW EXT) are negligible in terms of memory consumption,
// exactly as the paper notes.
//
// Requirements are expressed as ratios of the frame buffer size, so the
// model scales with geometry; at the paper's 1024x1024 x 2 B/px geometry
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

// ratios of the frame size {input, intermediate, output}, per task.
// Dividing Table 1's KB values by 2,048 KB gives these constants.
var ratioTable = map[tasks.Name][3]float64{
	tasks.NameRDGFull: {1, 3.5, 2.5},      // 2048, 7168, 5120
	tasks.NameRDGROI:  {1, 2.5, 2.5},      // 2048, 5120, 5120
	tasks.NameENH:     {1, 4, 0.5},        // 2048, 8192, 1024
	tasks.NameZOOM:    {0.5, 2, 2},        // 1024, 4096, 4096
	tasks.NameMKXExt:  {0.25, 0.25, 1.25}, // 512, 512, 2560 (RDG off)
}

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
	req := Requirement{Task: task, RDGSelected: rdgSelected}
	switch task {
	case tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameENH, tasks.NameZOOM:
		r := ratioTable[task]
		req.InputKB = scale(frameKB, r[0])
		req.IntermediateKB = scale(frameKB, r[1])
		req.OutputKB = scale(frameKB, r[2])
	case tasks.NameMKXExt:
		r := ratioTable[task]
		req.HasRDGVariants = true
		if rdgSelected {
			req.InputKB = scale(frameKB, mkxInputWithRDG)
		} else {
			req.InputKB = scale(frameKB, r[0])
		}
		req.IntermediateKB = scale(frameKB, r[1])
		req.OutputKB = scale(frameKB, r[2])
	case tasks.NameCPLSSel, tasks.NameREG, tasks.NameROIEst, tasks.NameGWExt, tasks.NameDetect:
		// Feature-data tasks: negligible array traffic (paper Section 5.1).
	default:
		return Requirement{}, fmt.Errorf("memmodel: unknown task %q", task)
	}
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
