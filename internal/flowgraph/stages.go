package flowgraph

import "triplec/internal/tasks"

// This file partitions the flow graph into the two software-pipeline stages
// used by the multi-frame executor (pipeline.Pipelined) and the speedup
// estimator (mapping.Predict): frame k's *back* stage may overlap frame
// k+1's *front* stage, bounded by the temporal dependency edges between
// consecutive frames.
//
// The cut is dictated by the graph's inter-frame state, not by task cost:
//
//   - REG consumes the previous frame's pixels and couple (the registration
//     dependency edge), so frame k+1's front half cannot start before frame
//     k's REG has produced them.
//   - The analysis granularity of frame k+1 (SW2) is the ROI estimated by
//     frame k's ROI_EST, so ROI_EST must complete with the front half even
//     though it runs post-registration.
//   - GW_EXT, ENH and ZOOM feed nothing into the next frame's front half
//     (ENH's temporal stack is consumed only by the next frame's ENH, which
//     is again a back-stage task), so they form the back stage.
//
// Hence: front = DETECT → RDG → MKX → CPLS → REG → ROI_EST,
// back = GW_EXT → ENH → ZOOM, and two consecutive frames may be in flight
// at once (double buffering) without reordering any temporal-state update.

// Stage identifies which pipeline stage a task executes in.
type Stage int

const (
	// StageFront tasks produce the inter-frame state the next frame's
	// analysis depends on; fronts of consecutive frames are serialized.
	StageFront Stage = iota
	// StageBack tasks only consume front results and back-stage temporal
	// state; frame k's back stage overlaps frame k+1's front stage.
	StageBack
)

func (s Stage) String() string {
	if s == StageFront {
		return "front"
	}
	return "back"
}

// StageOf returns the pipeline stage of a task (the task table's Back
// column; a name outside the flow graph is front-stage).
func StageOf(name tasks.Name) Stage {
	if s, _ := tasks.SpecOf(name); s.Back {
		return StageBack
	}
	return StageFront
}

// FrontTasks returns the scenario's active front-stage tasks, in pipeline
// order.
func (s Scenario) FrontTasks() []tasks.Name {
	return s.stageTasks(StageFront)
}

// BackTasks returns the scenario's active back-stage tasks, in pipeline
// order. Scenarios with a failed registration have an empty back stage.
func (s Scenario) BackTasks() []tasks.Name {
	return s.stageTasks(StageBack)
}

func (s Scenario) stageTasks(st Stage) []tasks.Name {
	var out []tasks.Name
	for _, t := range s.ActiveTasks() {
		if StageOf(t) == st {
			out = append(out, t)
		}
	}
	return out
}

// CutKB returns the scenario's per-frame data volume crossing the
// front/back stage cut: the sum of the edges whose producer is a front-stage
// task and whose consumer is a back-stage task. This is the handoff traffic
// a pipelined mapping moves between the two core partitions every frame —
// the communication-cost term the mapping optimizer charges a candidate for
// overlapping the stages on disjoint cores. Edges fed by the frame source
// (INPUT) are excluded: that data reaches either partition straight from
// the acquisition buffer. Scenarios with a failed registration have an
// empty back stage and a zero cut.
func (s Scenario) CutKB(frameKB int) (int, error) {
	edges, err := s.Edges(frameKB)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, e := range edges {
		if e.From == NodeInput || e.To == NodeOutput {
			continue
		}
		if StageOf(e.From) == StageFront && StageOf(e.To) == StageBack {
			total += e.KB
		}
	}
	return total, nil
}
