// Package mapping is the bi-criteria stage-to-core mapping optimizer: for
// each stream it enumerates interval mappings of the flow-graph stages onto
// the stream's core allocation, scores every candidate with the scenario-
// conditioned demand model (per-task machine-model stage times, the memory
// roofline of the speedup estimator in speedup.go, and a communication term
// for the stage handoff), keeps the Pareto front over (latency, period), and
// picks one point off the front with scenario-pressure-adaptive weights. A
// dynamic program then divides the machine across streams by the same
// weighted objective. The shape follows "Bi-criteria Pipeline Mappings for Parallel
// Image Processing" (Benoit et al.): interval mappings, latency/period
// bi-criteria, and the observation that proportional scalar splits ignore
// the graph structure the criteria depend on. The analytical pipelining
// speedup estimator the roofline comes from is in speedup.go.
package mapping

import (
	"math"

	"triplec/internal/flowgraph"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/sched"
	"triplec/internal/tasks"
)

// Candidate is one evaluated stage-to-core mapping for a single stream:
// the executable plan plus its predicted criteria under the stream's
// scenario-conditioned cost profile.
type Candidate struct {
	Plan sched.StreamPlan
	// LatencyMs is the scenario-weighted mean frame latency: front + back
	// critical paths (+ handoff when the stages run on disjoint cores).
	LatencyMs float64
	// PeriodMs is the scenario-weighted steady-state initiation interval:
	// max(front, back, memory roofline) + handoff when pipelined, else the
	// latency — the inverse of attainable throughput.
	PeriodMs float64
	// CommMs is the scenario-weighted stage-handoff cost alone.
	CommMs float64
}

// stageTables is the part of the demand model that depends only on the
// machine: which stage each task belongs to and how many stripes a stage
// share of k cores gives it. Shares beyond the machine size read the last
// column — StripedMs clamps the stripe count to the core count.
type stageTables struct {
	machine *platform.Machine
	arch    platform.Arch
	shares  int // table columns: stage shares 1..shares (the machine size)
	back    [tasks.NumNames]bool
	stripes []int // [task*shares + k-1] = partition.MaxStripes(task, k)
}

func newStageTables(machine *platform.Machine) *stageTables {
	t := &stageTables{machine: machine, arch: machine.Arch()}
	t.shares = t.arch.NumCPUs
	t.stripes = make([]int, tasks.NumNames*t.shares)
	for ti, name := range tasks.AllNames() {
		t.back[ti] = flowgraph.StageOf(name) == flowgraph.StageBack
		for k := 1; k <= t.shares; k++ {
			t.stripes[ti*t.shares+k-1] = partition.MaxStripes(name, k)
		}
	}
	return t
}

// evaluator scores candidates for one stream: the cost profile fixes the
// per-scenario task demands, cutMs the per-scenario handoff cost. A
// candidate's criteria are functions of per-stage times, and a stage's time
// depends only on that stage's own core count, so fill tabulates
// front[s][k] / back[s][k] once and Evaluate reads them — the interval-
// mapping structure of the bi-criteria paper.
type evaluator struct {
	t *stageTables
	// weight is the profile's scenario frequencies, copied so the evaluator
	// does not keep pointing into the caller's demand slice; active lists
	// the scenarios with weight > 0, ascending — the only ones scored.
	weight [pipeline.NumScenarios]float64
	active []int
	// serial is the one-core plan's score: the reference every score is
	// normalized by and the first candidate of every share.
	serial Candidate
	// cutMs[s] is the modeled time to move scenario s's front→back cut
	// through the memory system once per frame.
	cutMs [pipeline.NumScenarios]float64
	// memMs[s] is scenario s's roofline floor: total frame traffic over
	// machine bandwidth, charged when front and back contend for the bus.
	memMs [pipeline.NumScenarios]float64
	// front/back[s*shares + k-1] are scenario s's front and back critical
	// paths when the stage owns k cores; filled for weight > 0 only.
	front, back []float64

	// cutAllMs caches the handoff roofline term of every scenario at
	// cutFrameKB: a pure function of (scenario, FrameKB) that would
	// otherwise rebuild the scenario's edge list on every re-division.
	cutFrameKB int
	cutAllMs   [pipeline.NumScenarios]float64
}

// fill points the evaluator at a stream's profile and tabulates its stage
// times. Each task is striped to min(stage cores, MaxStripes(task)) — the
// engine's actual stripe rule — and zero-cost tasks are skipped so the model
// does not charge SwitchCost for tasks the scenario never runs. Every table
// entry accumulates its tasks in task-index order.
func (ev *evaluator) fill(t *stageTables, prof *pipeline.CostProfile, frameKB int) {
	ev.t, ev.weight, ev.active = t, prof.Weight, ev.active[:0]
	if n := pipeline.NumScenarios * t.shares; len(ev.front) != n {
		ev.front = make([]float64, n)
		ev.back = make([]float64, n)
		ev.active = make([]int, 0, pipeline.NumScenarios)
	}
	if frameKB != ev.cutFrameKB {
		ev.cutFrameKB = frameKB
		ev.cutAllMs = [pipeline.NumScenarios]float64{}
		if frameKB > 0 {
			for s := range ev.cutAllMs {
				if cutKB, err := flowgraph.FromIndex(s).CutKB(frameKB); err == nil {
					ev.cutAllMs[s] = RooflineMs(float64(cutKB)*1024, t.arch)
				}
			}
		}
	}
	for s := range prof.Weight {
		ev.cutMs[s], ev.memMs[s] = 0, 0
		if prof.Weight[s] <= 0 {
			continue
		}
		ev.active = append(ev.active, s)
		ev.cutMs[s] = ev.cutAllMs[s]
		front := ev.front[s*t.shares : (s+1)*t.shares]
		back := ev.back[s*t.shares : (s+1)*t.shares]
		for k := range front {
			front[k], back[k] = 0, 0
		}
		traffic := 0.0
		for ti := range prof.Cost[s] {
			c := prof.Cost[s][ti]
			traffic += c.MemBytes
			if c.Cycles <= 0 && c.MemBytes <= 0 {
				continue
			}
			stage := front
			if t.back[ti] {
				stage = back
			}
			// Only the data-parallel tasks change stripe count with every
			// share; the others repeat the previous column's time.
			stripes, ms := 0, 0.0
			for k, n := range t.stripes[ti*t.shares : (ti+1)*t.shares] {
				if n != stripes {
					stripes, ms = n, t.machine.StripedMs(c, n)
				}
				stage[k] += ms
			}
		}
		ev.memMs[s] = RooflineMs(traffic, t.arch)
	}
	ev.serial = ev.Evaluate(sched.StreamPlan{Cores: 1})
}

// stageMs returns scenario s's front and back critical paths when the front
// stage owns cf cores and the back stage cb (equal to the full share for a
// non-pipelined mapping).
func (ev *evaluator) stageMs(s, cf, cb int) (front, back float64) {
	base, shares := s*ev.t.shares-1, ev.t.shares
	return ev.front[base+max(1, min(cf, shares))], ev.back[base+max(1, min(cb, shares))]
}

// Evaluate scores a plan against the profile.
func (ev *evaluator) Evaluate(p sched.StreamPlan) Candidate {
	cand := Candidate{Plan: p}
	for _, s := range ev.active {
		w := ev.weight[s]
		var lat, period, comm float64
		if p.Pipelined {
			f, b := ev.stageMs(s, p.FrontCores, p.BackCores)
			comm = ev.cutMs[s]
			lat = f + b + comm
			period = math.Max(math.Max(f, b), ev.memMs[s]) + comm
		} else {
			k := p.Cores
			if !p.Striped {
				k = 1
			}
			f, b := ev.stageMs(s, k, k)
			lat = f + b
			period = lat
		}
		cand.LatencyMs += w * lat
		cand.PeriodMs += w * period
		cand.CommMs += w * comm
	}
	return cand
}

// Candidates enumerates the stream's mapping space for a share of c cores:
// serial for one core; for larger shares, full striping without pipelining
// plus every front/back core partition of the window-2 pipeline. The
// returned set always contains the greedy baseline's plan (even stage
// split), so the optimizer can never score worse than greedy under its own
// model.
func (ev *evaluator) Candidates(c int, out []Candidate) []Candidate {
	out = out[:0]
	if c < 1 {
		return out
	}
	out = append(out, ev.serial)
	if c < 2 {
		return out
	}
	out = append(out, ev.Evaluate(sched.StreamPlan{Cores: c, Striped: true}))
	for cf := 1; cf < c; cf++ {
		out = append(out, ev.Evaluate(sched.StreamPlan{
			Cores: c, Pipelined: true, FrontCores: cf, BackCores: c - cf,
		}))
	}
	return out
}
