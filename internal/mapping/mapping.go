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

// Candidate is the evaluation of one stage-to-core mapping for a single
// stream: its predicted criteria under the stream's scenario-conditioned
// cost profile.
type Candidate struct {
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

// evaluator scores candidates for one stream slot: the cost profile fixes the
// per-scenario task demands, cutMs the per-scenario handoff cost. A
// candidate's criteria are functions of per-stage times, and a stage's time
// depends only on that stage's own core count, so fill tabulates
// front[s][k] / back[s][k] once and Evaluate reads them — the interval-
// mapping structure of the bi-criteria paper.
//
// The tables outlive a Map call. A re-division follows the fold of one
// frame's report, which rewrites the cost row of the one scenario that frame
// observed, so the evaluator keeps every scenario's tables and each
// candidate's unweighted criteria, and recomputes a scenario only when its
// cost row differs bit for bit from the one they were built from, the
// FrameKB cut term changed, or the candidate range did. The scenario weights
// change with every fold; Map re-weights the kept criteria on every call.
type evaluator struct {
	t *stageTables
	// weight is the profile's scenario frequencies, copied so the evaluator
	// does not keep pointing into the caller's demand slice; active lists
	// the scenarios with weight > 0, ascending — the only ones scored.
	weight [pipeline.NumScenarios]float64
	active []int
	// serial is the one-core plan's criteria, which Map sets: the reference
	// every score is normalized by and the first candidate of every share.
	serial Candidate
	// cutMs[s] is the modeled time to move scenario s's front→back cut
	// through the memory system once per frame; 0 for weight ≤ 0.
	cutMs [pipeline.NumScenarios]float64
	// memMs[s] is scenario s's roofline floor: total frame traffic over
	// machine bandwidth, charged when front and back contend for the bus.
	memMs [pipeline.NumScenarios]float64
	// front/back[s*shares + k-1] are scenario s's front and back critical
	// paths when the stage owns k cores.
	front, back []float64
	// row[s] is the cost row memMs[s] and scenario s's front/back rows were
	// tabulated from, when rowOK[s]; a scenario is tabulated the first time
	// it carries weight and again whenever its row changes.
	row   [pipeline.NumScenarios][tasks.NumNames]platform.Cost
	rowOK [pipeline.NumScenarios]bool

	// cutAllMs caches the handoff roofline term of every scenario at
	// cutFrameKB: a pure function of (scenario, FrameKB) that would
	// otherwise rebuild the scenario's edge list on every re-division.
	cutFrameKB int
	cutAllMs   [pipeline.NumScenarios]float64

	// terms[s*ncand + j] is scenario s's unweighted latency and period
	// under candidate j of the ncand-candidate layout (see candidatePlans),
	// current when termOK[s].
	ncand  int
	termOK [pipeline.NumScenarios]bool
	terms  []latPeriod
}

// fill points the evaluator at a stream's profile and re-tabulates the stage
// times of the scenarios whose cost row changed. Each task is striped to
// min(stage cores, MaxStripes(task)) — the engine's actual stripe rule — and
// zero-cost tasks are skipped so the model does not charge SwitchCost for
// tasks the scenario never runs. Every table entry accumulates its tasks in
// task-index order.
func (ev *evaluator) fill(t *stageTables, prof *pipeline.CostProfile, frameKB int) {
	if ev.t != t {
		n := pipeline.NumScenarios * t.shares
		*ev = evaluator{
			t:      t,
			front:  make([]float64, n),
			back:   make([]float64, n),
			active: make([]int, 0, pipeline.NumScenarios),
		}
	}
	ev.weight, ev.active = prof.Weight, ev.active[:0]
	if frameKB != ev.cutFrameKB {
		ev.cutFrameKB = frameKB
		ev.cutAllMs = [pipeline.NumScenarios]float64{}
		ev.termOK = [pipeline.NumScenarios]bool{}
		if frameKB > 0 {
			for s := range ev.cutAllMs {
				if cutKB, err := flowgraph.FromIndex(s).CutKB(frameKB); err == nil {
					ev.cutAllMs[s] = RooflineMs(float64(cutKB)*1024, t.arch)
				}
			}
		}
	}
	for s := range prof.Weight {
		ev.cutMs[s] = 0
		if prof.Weight[s] <= 0 {
			continue
		}
		ev.active = append(ev.active, s)
		ev.cutMs[s] = ev.cutAllMs[s]
		if ev.rowOK[s] && sameRow(&ev.row[s], &prof.Cost[s]) {
			continue
		}
		ev.row[s], ev.rowOK[s], ev.termOK[s] = prof.Cost[s], true, false
		ev.tabulate(s)
	}
}

// sameRow compares two cost rows bit for bit, so a NaN entry matches itself
// and −0 does not match +0.
func sameRow(a, b *[tasks.NumNames]platform.Cost) bool {
	for ti := range a {
		if math.Float64bits(a[ti].Cycles) != math.Float64bits(b[ti].Cycles) ||
			math.Float64bits(a[ti].MemBytes) != math.Float64bits(b[ti].MemBytes) {
			return false
		}
	}
	return true
}

// tabulate fills scenario s's front/back rows and roofline floor from row[s].
func (ev *evaluator) tabulate(s int) {
	t := ev.t
	front := ev.front[s*t.shares : (s+1)*t.shares]
	back := ev.back[s*t.shares : (s+1)*t.shares]
	for k := range front {
		front[k], back[k] = 0, 0
	}
	traffic := 0.0
	for ti, c := range ev.row[s] {
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

// stageMs returns scenario s's front and back critical paths when the front
// stage owns cf cores and the back stage cb (equal to the full share for a
// non-pipelined mapping).
func (ev *evaluator) stageMs(s, cf, cb int) (front, back float64) {
	base, shares := s*ev.t.shares-1, ev.t.shares
	return ev.front[base+max(1, min(cf, shares))], ev.back[base+max(1, min(cb, shares))]
}

// term is scenario s's unweighted latency, period and handoff cost under
// plan p.
func (ev *evaluator) term(s int, p sched.StreamPlan) (lat, period, comm float64) {
	if p.Pipelined {
		f, b := ev.stageMs(s, p.FrontCores, p.BackCores)
		comm = ev.cutMs[s]
		return f + b + comm, math.Max(math.Max(f, b), ev.memMs[s]) + comm, comm
	}
	k := p.Cores
	if !p.Striped {
		k = 1
	}
	f, b := ev.stageMs(s, k, k)
	return f + b, f + b, 0
}

// Evaluate scores a plan against the profile.
func (ev *evaluator) Evaluate(p sched.StreamPlan) Candidate {
	var cand Candidate
	for _, s := range ev.active {
		w := ev.weight[s]
		lat, period, comm := ev.term(s, p)
		cand.LatencyMs += w * lat
		cand.PeriodMs += w * period
		cand.CommMs += w * comm
	}
	return cand
}

// latPeriod is one scenario's unweighted latency and period under one
// candidate. Its handoff term needs no entry: it is the scenario's cutMs for
// every pipelined candidate and 0 for every other.
type latPeriod struct{ lat, period float64 }

// weigh writes every candidate's weighted criteria into out (len(plans)),
// recomputing the unweighted terms of the scenarios fill invalidated. Every
// sum runs in ascending scenario order from 0, as Evaluate's does, so out[j]
// equals Evaluate(plans[j]) bit for bit. The handoff term is the same for
// every pipelined candidate and for every other, so its two sums are formed
// once.
func (ev *evaluator) weigh(plans []sched.StreamPlan, out []Candidate) {
	const ns = pipeline.NumScenarios
	n := len(plans)
	if n != ev.ncand {
		ev.ncand = n
		ev.termOK = [ns]bool{}
		if cap(ev.terms) < ns*n {
			ev.terms = make([]latPeriod, ns*n)
		}
		ev.terms = ev.terms[:ns*n]
	}
	var commSerial, commPiped float64
	for _, s := range ev.active {
		w := ev.weight[s]
		commSerial += w * 0
		commPiped += w * ev.cutMs[s]
		if !ev.termOK[s] {
			ev.termOK[s] = true
			for j, p := range plans {
				t := &ev.terms[s*n+j]
				t.lat, t.period, _ = ev.term(s, p)
			}
		}
	}
	out = out[:n]
	for j, p := range plans {
		out[j] = Candidate{CommMs: commSerial}
		if p.Pipelined {
			out[j].CommMs = commPiped
		}
	}
	// Latency and period, two scenarios a pass over the candidates: x + y + z
	// adds left to right, so the earlier scenario still adds first.
	act := ev.active
	for ; len(act) >= 2; act = act[2:] {
		w1, w2 := ev.weight[act[0]], ev.weight[act[1]]
		t1, t2 := ev.terms[act[0]*n:(act[0]+1)*n], ev.terms[act[1]*n:(act[1]+1)*n]
		t1, t2 = t1[:len(out)], t2[:len(out)] // one bounds check a pass
		for j := range out {
			o, a, b := &out[j], t1[j], t2[j]
			o.LatencyMs = o.LatencyMs + w1*a.lat + w2*b.lat
			o.PeriodMs = o.PeriodMs + w1*a.period + w2*b.period
		}
	}
	for _, s := range act {
		w, t1 := ev.weight[s], ev.terms[s*n:(s+1)*n]
		t1 = t1[:len(out)]
		for j := range out {
			o := &out[j]
			o.LatencyMs += w * t1[j].lat
			o.PeriodMs += w * t1[j].period
		}
	}
}

// numCandidates is len(candidatePlans(maxShare)).
func numCandidates(maxShare int) int { return maxShare * (maxShare + 1) / 2 }

// candidatePlans lays out the mapping space of every share c ∈ [1, maxShare]:
// serial at index 0, the one-core candidate of every share, then for each
// share c ≥ 2, at index c(c-1)/2, its own c plans in enumeration order — full
// striping without pipelining, then every front/back core partition of the
// window-2 pipeline by ascending front cores. Every share's set contains the
// greedy baseline's plan (even stage split), so the optimizer can never
// score worse than greedy under its own model, and the layout of a smaller
// maxShare is a prefix of a larger one's.
func candidatePlans(maxShare int) []sched.StreamPlan {
	plans := make([]sched.StreamPlan, 1, numCandidates(maxShare))
	plans[0] = sched.StreamPlan{Cores: 1}
	for c := 2; c <= maxShare; c++ {
		plans = append(plans, sched.StreamPlan{Cores: c, Striped: true})
		for cf := 1; cf < c; cf++ {
			plans = append(plans, sched.StreamPlan{Cores: c, Pipelined: true, FrontCores: cf, BackCores: c - cf})
		}
	}
	return plans
}
