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
