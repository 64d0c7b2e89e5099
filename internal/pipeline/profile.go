package pipeline

import (
	"math"

	"triplec/internal/platform"
	"triplec/internal/tasks"
)

// NumScenarios is the number of flow-graph scenarios a CostProfile keys on
// (flowgraph.Scenario.Index() ∈ [0, NumScenarios)).
const NumScenarios = 8

// CostProfile aggregates per-frame reports into the scenario-conditioned
// demand model the mapping layer scores candidate schedules with: for every
// flow-graph scenario, its observed frequency and the mean per-frame
// resource demand (cycles + external-memory traffic) of each task. Task
// costs are mapping-independent — TaskExec.Cost records the full work before
// striping divides it — so a profile measured under one mapping predicts the
// cost of any other.
//
// The struct is all fixed-size arrays: building and folding profiles
// allocates nothing, so the steady-state demand-reporting path of the
// serving layer can carry one per frame on the stack.
type CostProfile struct {
	// Frames is the number of reports folded in.
	Frames int
	// Weight is each scenario's frequency over the profiled frames
	// (sums to 1 when Frames > 0).
	Weight [NumScenarios]float64
	// Cost is the mean per-frame resource demand of each task within a
	// scenario, indexed by [flowgraph.Scenario.Index()][tasks.IndexOf(task)].
	// A zero entry means the task does not run in that scenario.
	Cost [NumScenarios][tasks.NumNames]platform.Cost
}

// Add folds one report into the profile, maintaining per-scenario running
// means. It is allocation-free.
func (p *CostProfile) Add(r Report) {
	si := r.Scenario.Index()
	if si < 0 || si >= NumScenarios {
		return
	}
	// Scenario frequencies: running mean of the indicator vector.
	p.Frames++
	inv := 1 / float64(p.Frames)
	for s := range p.Weight {
		hit := 0.0
		if s == si {
			hit = 1
		}
		p.Weight[s] += (hit - p.Weight[s]) * inv
	}
	// Task costs: running mean within the observed scenario.
	n := p.Weight[si] * float64(p.Frames) // frames observed in scenario si
	if n <= 0 {
		return
	}
	for _, e := range r.Execs {
		ti := tasks.IndexOf(e.Task)
		if ti < 0 {
			continue
		}
		c := &p.Cost[si][ti]
		c.Cycles += (e.Cost.Cycles - c.Cycles) / n
		c.MemBytes += (e.Cost.MemBytes - c.MemBytes) / n
	}
}

// Profile builds a cost profile over a report slice (e.g. a serial
// profiling prefix — the Triple-C methodology: measure first, then commit
// resources).
func Profile(reports []Report) CostProfile {
	var p CostProfile
	for _, r := range reports {
		p.Add(r)
	}
	return p
}

// Valid reports whether every weight, and every cost of a weighted
// scenario, is finite and non-negative: Fold's EWMA never forgets a NaN.
func (p *CostProfile) Valid() bool {
	ok := func(v float64) bool { return v >= 0 && v <= math.MaxFloat64 }
	for s, w := range p.Weight {
		if w == 0 {
			continue
		}
		if !ok(w) {
			return false
		}
		for _, c := range p.Cost[s] {
			if !ok(c.Cycles) || !ok(c.MemBytes) {
				return false
			}
		}
	}
	return true
}

// Fold blends a newer profile into p with EWMA factor a ∈ (0, 1] (1 replaces
// p entirely), the same smoothing the arbiter applies to scalar demands:
// scenario weights converge to the stream's recent scenario mix, and task
// costs update only for scenarios the newer profile actually observed (an
// unobserved scenario keeps its last known costs rather than decaying to
// zero — a stream revisiting a scenario should be charged its real demand,
// not an artifact of how long it stayed away). Allocation-free.
func (p *CostProfile) Fold(next *CostProfile, a float64) {
	if next.Frames == 0 {
		return
	}
	if a <= 0 || a > 1 || p.Frames == 0 {
		a = 1
	}
	for s := range p.Weight {
		p.Weight[s] = (1-a)*p.Weight[s] + a*next.Weight[s]
		if next.Weight[s] <= 0 {
			continue
		}
		for ti := range p.Cost[s] {
			nc := next.Cost[s][ti]
			if nc.Cycles <= 0 && nc.MemBytes <= 0 {
				// The task did not run in this scenario's newer frames;
				// keep the prior estimate.
				continue
			}
			c := &p.Cost[s][ti]
			c.Cycles = (1-a)*c.Cycles + a*nc.Cycles
			c.MemBytes = (1-a)*c.MemBytes + a*nc.MemBytes
		}
	}
	p.Frames += next.Frames
}
