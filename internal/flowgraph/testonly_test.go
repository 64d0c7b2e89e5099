package flowgraph

import (
	"fmt"

	"triplec/internal/tasks"
)

// The best-case scenario and the graph-invariant checker, which only tests
// use.

// BestCase is the scenario with the lowest bandwidth demand; the paper notes
// that in this scenario "the algorithm will not output a satisfying result".
func BestCase() Scenario { return Scenario{RDGOn: false, ROIKnown: true, RegSuccess: false} }

// Validate checks graph invariants for every scenario: the edge list is
// acyclic in pipeline order, every consumer is an active task (or OUTPUT),
// and every active pixel task is connected.
func Validate(frameKB int) error {
	order := map[tasks.Name]int{NodeInput: 0}
	for i, n := range tasks.AllNames() {
		order[n] = i + 1
	}
	order[NodeOutput] = len(order) + 1
	for _, s := range AllScenarios() {
		edges, err := s.Edges(frameKB)
		if err != nil {
			return fmt.Errorf("flowgraph: scenario %s: %w", s, err)
		}
		active := map[tasks.Name]bool{NodeInput: true, NodeOutput: true}
		for _, t := range s.ActiveTasks() {
			active[t] = true
		}
		touched := map[tasks.Name]bool{}
		for _, e := range edges {
			if order[e.From] >= order[e.To] {
				return fmt.Errorf("flowgraph: scenario %s: edge %s->%s not in pipeline order", s, e.From, e.To)
			}
			if !active[e.From] || !active[e.To] {
				return fmt.Errorf("flowgraph: scenario %s: edge %s->%s touches inactive task", s, e.From, e.To)
			}
			if e.KB < 0 {
				return fmt.Errorf("flowgraph: scenario %s: negative edge size", s)
			}
			touched[e.From] = true
			touched[e.To] = true
		}
		// Every active pixel-array task must appear on some edge.
		for _, name := range s.ActiveTasks() {
			if name == tasks.NameDetect || name == tasks.NameREG ||
				name == tasks.NameROIEst || name == tasks.NameGWExt || name == tasks.NameCPLSSel {
				continue // feature tasks may sit on feature edges only
			}
			if !touched[name] {
				return fmt.Errorf("flowgraph: scenario %s: active task %s not connected", s, name)
			}
		}
	}
	return nil
}

// Frame sizing and the cache-overflow list, which only tests use.

// FrameKB returns the size of one full frame buffer in KB for the given
// geometry (2 bytes per pixel).
func FrameKB(width, height int) int {
	return width * height * 2 / 1024
}

// IntraTaskOverflowKB lists, for each task whose intra-task footprint
// exceeds the given cache capacity, the amount by which it overflows. The
// paper (Section 5) singles out RDG FULL, ENH and ZOOM against the 4 MB L2.
func IntraTaskOverflowKB(frameKB, cacheKB int) (map[tasks.Name]int, error) {
	if cacheKB <= 0 {
		return nil, fmt.Errorf("memmodel: cacheKB must be positive")
	}
	out := map[tasks.Name]int{}
	for _, task := range []tasks.Name{
		tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameMKXExt,
		tasks.NameENH, tasks.NameZOOM,
	} {
		req, err := Lookup(task, true, frameKB)
		if err != nil {
			return nil, err
		}
		if tot := req.TotalKB(); tot > cacheKB {
			out[task] = tot - cacheKB
		}
	}
	return out, nil
}

// AnalyzeAll returns the Analysis of all eight scenarios.
func AnalyzeAll(frameKB, cacheKB int, rate float64) ([]Analysis, error) {
	var out []Analysis
	for _, s := range AllScenarios() {
		a, err := Analyze(s, frameKB, cacheKB, rate)
		if err != nil {
			return nil, err
		}
		out = append(out, a)
	}
	return out, nil
}
