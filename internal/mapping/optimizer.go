package mapping

import (
	"fmt"
	"math"

	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/sched"
)

// Optimizer is the bi-criteria mapping arbiter behind the sched.Mapper
// seam. Per stream it enumerates serial / striped / every pipelined
// front-back core partition for each possible share, keeps the Pareto front
// over (latency, period), and picks one point with the stream's
// pressure-adaptive weights; a dynamic program then chooses the per-stream
// shares that minimize the total weighted score across the machine. The
// greedy baseline's plan is always in the candidate set, and the final
// allocation falls back to greedy's unless the optimizer's modeled score is
// materially better — the optimizer can restructure mappings, but it can
// never do worse than the baseline under its own model.
//
// Not safe for concurrent use; MultiManager serializes Map calls under its
// lock.
type Optimizer struct {
	tables *stageTables
	greedy sched.GreedyMapper

	// LastParetoPoints is the total Pareto-front size across streams at
	// their chosen shares in the most recent Map — a diagnostic for how
	// much genuine trade-off space the optimizer had.
	LastParetoPoints int

	// Scratch reused across Map calls and grown on demand, so a warmed
	// optimizer re-divides without allocating.
	streams []streamScratch
	// plans is candidatePlans(maxShare) for the largest share seen (a
	// smaller share's layout is its prefix); cand and score hold one
	// stream's evaluation and score of every candidate, and shCand and
	// shScore one share's, gathered in enumeration order.
	plans          []sched.StreamPlan
	cand, shCand   []Candidate
	score, shScore []float64
	f              []float64 // DP rows, (n+1) x (totalCores+1)
	choice         []int
	greedyPlans    []sched.StreamPlan
}

// streamScratch is one stream slot's evaluator, kept across Map calls, plus
// what Map derives from it once per call: the objective weights and the
// per-share pick tables.
type streamScratch struct {
	ev evaluator
	w  Weights
	// Indexed by share c ∈ [1, maxShare]: the picked plan, its weighted
	// score, and the front size behind it.
	plan   []sched.StreamPlan
	score  []float64
	points []int
}

// preferGreedyMargin: the optimizer deviates from the greedy division only
// when its modeled total score improves by more than this relative margin;
// within the margin the simpler baseline wins (stability over churn).
const preferGreedyMargin = 1e-3

// NewOptimizer builds an optimizer for the modeled architecture.
func NewOptimizer(arch platform.Arch) (*Optimizer, error) {
	m, err := platform.NewMachine(arch)
	if err != nil {
		return nil, fmt.Errorf("mapping: %w", err)
	}
	return &Optimizer{tables: newStageTables(m)}, nil
}

// Name implements sched.Mapper.
func (o *Optimizer) Name() string { return "optimizer" }

// grow sizes the scratch for n streams on totalCores cores.
func (o *Optimizer) grow(n, totalCores, maxShare int) {
	for len(o.streams) < n {
		o.streams = append(o.streams, streamScratch{})
	}
	for i := range o.streams[:n] {
		st := &o.streams[i]
		if cap(st.plan) < maxShare+1 {
			st.plan = make([]sched.StreamPlan, maxShare+1)
			st.score = make([]float64, maxShare+1)
			st.points = make([]int, maxShare+1)
		}
		st.plan, st.score, st.points = st.plan[:maxShare+1], st.score[:maxShare+1], st.points[:maxShare+1]
	}
	if nc := numCandidates(maxShare); len(o.plans) < nc {
		o.plans = candidatePlans(maxShare)
		o.cand = make([]Candidate, nc)
		o.score = make([]float64, nc)
		o.shCand = make([]Candidate, 0, maxShare+1)
		o.shScore = make([]float64, 0, maxShare+1)
	}
	if cells := (n + 1) * (totalCores + 1); cap(o.f) < cells {
		o.f = make([]float64, cells)
		o.choice = make([]int, cells)
	}
	if cap(o.greedyPlans) < n {
		o.greedyPlans = make([]sched.StreamPlan, n)
	}
}

// Map implements sched.Mapper.
func (o *Optimizer) Map(totalCores int, demands []sched.StreamDemand, plans []sched.StreamPlan) error {
	n := len(demands)
	if len(plans) != n {
		return fmt.Errorf("mapping: %d plans for %d demands", len(plans), n)
	}
	if n == 0 {
		return fmt.Errorf("mapping: no streams to map %d cores over", totalCores)
	}
	// The optimizer needs the scenario-conditioned profile; until every
	// stream has reported one — and in the oversubscribed regime, where the
	// only decision is which streams to shed (the greedy division's demand
	// ranking) — the greedy division is the answer.
	structured := totalCores >= n
	for i := range demands {
		if demands[i].Profile.Frames == 0 {
			structured = false
		}
	}
	if !structured {
		o.LastParetoPoints = 0
		return o.greedy.Map(totalCores, demands, plans)
	}

	// Per-stream tables over possible shares c ∈ [1, maxShare]. Scores are
	// made monotone non-increasing in c (a larger share may always fall
	// back to the smaller share's plan), so the cross-stream DP can hand
	// out all cores without forcing any stream to waste them.
	maxShare := totalCores - (n - 1)
	o.grow(n, totalCores, maxShare)
	nc := numCandidates(maxShare)
	cplans, cand, score := o.plans[:nc], o.cand[:nc], o.score[:nc]
	for i := range demands {
		d := &demands[i]
		st := &o.streams[i]
		ev := &st.ev
		ev.fill(o.tables, &d.Profile, d.FrameKB)
		ev.weigh(cplans, cand)
		ev.serial = cand[0]
		st.w = ComputePressures(ev.serial.LatencyMs, d.BudgetMs, n, totalCores, ev.meanCutMs()).Softmax()
		for j := range score {
			score[j] = st.w.Score(cand[j], ev.serial)
		}
		// A share whose front has no finite-scoring point picks the zero
		// plan, scored as a zero Candidate.
		zeroScore := st.w.Score(Candidate{}, ev.serial)
		for c := 1; c <= maxShare; c++ {
			// Share c's candidates: serial, then (c ≥ 2) its own c.
			own, lo := 0, c*(c-1)/2
			if c > 1 {
				own = c
			}
			sc := append(append(o.shCand[:0], cand[0]), cand[lo:lo+own]...)
			ss := append(append(o.shScore[:0], score[0]), score[lo:lo+own]...)
			best, points := pickFront(sc, ss)
			plan, s := sched.StreamPlan{}, zeroScore
			if best >= 0 {
				j := 0
				if best > 0 {
					j = lo + best - 1
				}
				plan, s = cplans[j], score[j]
			}
			if c > 1 && st.score[c-1] <= s {
				st.plan[c] = st.plan[c-1]
				st.score[c] = st.score[c-1]
				st.points[c] = st.points[c-1]
				continue
			}
			st.plan[c] = plan
			st.score[c] = s
			st.points[c] = points
		}
	}

	// DP over streams × cores: f[j][c] is the minimal total score mapping
	// the first j streams onto exactly c cores (each stream ≥ 1). choice
	// records stream j-1's share on the optimal path.
	const inf = math.MaxFloat64
	row := totalCores + 1
	f, choice := o.f[:(n+1)*row], o.choice[:(n+1)*row]
	for i := range f {
		f[i], choice[i] = inf, 0
	}
	f[0] = 0
	for j := 1; j <= n; j++ {
		score := o.streams[j-1].score
		for c := j; c <= totalCores-(n-j); c++ {
			for k := 1; k <= c-(j-1) && k <= maxShare; k++ {
				prev := f[(j-1)*row+c-k]
				if prev == inf {
					continue
				}
				if s := prev + score[k]; s < f[j*row+c] {
					f[j*row+c] = s
					choice[j*row+c] = k
				}
			}
		}
	}
	optScore := f[n*row+totalCores]
	if optScore == inf {
		// No finite total (NaN scores): the greedy division, as above.
		o.LastParetoPoints = 0
		return o.greedy.Map(totalCores, demands, plans)
	}

	points := 0
	c := totalCores
	for j := n; j >= 1; j-- {
		k := choice[j*row+c]
		plans[j-1] = o.streams[j-1].plan[k]
		points += o.streams[j-1].points[k]
		c -= k
	}

	// Hold the allocation to the greedy baseline unless the model predicts
	// a material improvement: the optimizer's candidate set contains every
	// greedy plan, so optScore ≤ greedyScore always holds; the margin only
	// suppresses churn on near-ties.
	greedyPlans := o.greedyPlans[:n]
	if err := o.greedy.Map(totalCores, demands, greedyPlans); err == nil {
		greedyScore := 0.0
		for i, gp := range greedyPlans {
			st := &o.streams[i]
			greedyScore += st.w.Score(st.ev.Evaluate(gp), st.ev.serial)
		}
		if optScore >= greedyScore*(1-preferGreedyMargin) {
			copy(plans, greedyPlans)
			o.LastParetoPoints = 0
			return nil
		}
	}
	o.LastParetoPoints = points
	return nil
}

// meanCutMs is the scenario-weighted mean stage-handoff cost — the
// communication-pressure numerator.
func (ev *evaluator) meanCutMs() float64 {
	total := 0.0
	for s, w := range ev.weight {
		total += w * ev.cutMs[s]
	}
	return total
}

// NumScenarios re-exported for tests' convenience.
const NumScenarios = pipeline.NumScenarios
