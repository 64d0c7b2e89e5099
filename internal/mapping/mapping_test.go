package mapping

import (
	"math"
	"testing"

	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/sched"
	"triplec/internal/tasks"
)

// testProfile builds a plausible scenario-conditioned cost profile: one
// dominant scenario with compute-heavy front tasks and data-parallel back
// tasks, matching the flow graph's real asymmetry.
func testProfile() pipeline.CostProfile {
	var p pipeline.CostProfile
	p.Frames = 16
	p.Weight[0] = 1
	for ti, name := range tasks.AllNames() {
		c := platform.Cost{Cycles: 2e6, MemBytes: 256 << 10}
		switch name {
		case tasks.NameENH, tasks.NameZOOM:
			c = platform.Cost{Cycles: 8e6, MemBytes: 2 << 20}
		case tasks.NameRDGFull:
			c = platform.Cost{Cycles: 6e6, MemBytes: 1 << 20}
		}
		p.Cost[0][ti] = c
	}
	return p
}

func testMachine(t testing.TB) *platform.Machine {
	t.Helper()
	m, err := platform.NewMachine(platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// newEvaluator tabulates one profile on a fresh evaluator.
func newEvaluator(m *platform.Machine, prof *pipeline.CostProfile, frameKB int) *evaluator {
	ev := &evaluator{}
	ev.fill(newStageTables(m), prof, frameKB)
	return ev
}

// TestParetoFrontProperties: no survivor dominates another survivor, every
// eliminated candidate is dominated by (or exactly ties) a survivor, and the
// front is non-empty for non-empty input.
func TestParetoFrontProperties(t *testing.T) {
	prof := testProfile()
	ev := newEvaluator(testMachine(t), &prof, 512)
	for c := 1; c <= 8; c++ {
		cands := ev.Candidates(c, nil)
		orig := make([]planned, len(cands))
		copy(orig, cands)
		front := ParetoFront(cands)
		if len(front) == 0 {
			t.Fatalf("share %d: empty front from %d candidates", c, len(orig))
		}
		for i, a := range front {
			for j, b := range front {
				if i != j && dominates(a.Candidate, b.Candidate) {
					t.Fatalf("share %d: front point %d dominates front point %d", c, i, j)
				}
			}
		}
		for _, o := range orig {
			covered := false
			for _, s := range front {
				if s.Plan == o.Plan || dominates(s.Candidate, o.Candidate) ||
					(s.LatencyMs == o.LatencyMs && s.PeriodMs == o.PeriodMs) {
					covered = true
					break
				}
			}
			if !covered {
				t.Fatalf("share %d: candidate %+v eliminated without a dominating survivor", c, o.Plan)
			}
		}
	}
}

// TestDominates: strict dominance on one axis, tie on the other.
func TestDominates(t *testing.T) {
	a := Candidate{LatencyMs: 1, PeriodMs: 1}
	b := Candidate{LatencyMs: 2, PeriodMs: 1}
	tie := Candidate{LatencyMs: 1, PeriodMs: 1}
	cross := Candidate{LatencyMs: 0.5, PeriodMs: 2}
	if !dominates(a, b) || dominates(b, a) {
		t.Fatal("dominance on latency axis broken")
	}
	if dominates(a, tie) || dominates(tie, a) {
		t.Fatal("exact ties must not dominate")
	}
	if dominates(a, cross) || dominates(cross, a) {
		t.Fatal("criteria trade-off must be incomparable")
	}
}

// TestSoftmaxWeights: weights always sum to 1, and raising one pressure
// shifts weight toward the matching criterion.
func TestSoftmaxWeights(t *testing.T) {
	cases := []Pressures{
		{},
		{Deadline: 1},
		{Scarcity: 1},
		{Comm: 1},
		{Deadline: 0.3, Scarcity: 0.9, Comm: 0.1},
		{Deadline: math.NaN(), Scarcity: -4, Comm: 7},
	}
	for _, p := range cases {
		w := p.Softmax()
		if sum := w.Latency + w.Throughput + w.Comm; math.Abs(sum-1) > 1e-12 {
			t.Fatalf("pressures %+v: weights sum to %v", p, sum)
		}
		if w.Latency <= 0 || w.Throughput <= 0 || w.Comm <= 0 {
			t.Fatalf("pressures %+v: non-positive weight %+v", p, w)
		}
	}
	base := Pressures{Deadline: 0.5, Scarcity: 0.5, Comm: 0.5}.Softmax()
	tight := Pressures{Deadline: 1, Scarcity: 0.5, Comm: 0.5}.Softmax()
	if tight.Latency <= base.Latency {
		t.Fatalf("deadline pressure did not raise latency weight: %v -> %v", base.Latency, tight.Latency)
	}
	scarce := Pressures{Deadline: 0.5, Scarcity: 1, Comm: 0.5}.Softmax()
	if scarce.Throughput <= base.Throughput {
		t.Fatalf("scarcity pressure did not raise throughput weight: %v -> %v", base.Throughput, scarce.Throughput)
	}
}

// TestComputePressuresDefaults: unknown budget and occupancy give neutral
// pressure; a serial latency at twice the budget saturates the deadline axis.
func TestComputePressuresDefaults(t *testing.T) {
	p := ComputePressures(10, 0, 0, 0, 0)
	if p.Deadline != 0.5 || p.Scarcity != 0.5 {
		t.Fatalf("unknown signals: %+v, want neutral 0.5", p)
	}
	if got := ComputePressures(40, 20, 2, 8, 0).Deadline; got != 1 {
		t.Fatalf("2x over budget: deadline pressure %v, want 1", got)
	}
	if got := ComputePressures(10, 40, 2, 8, 0).Deadline; math.Abs(got-0.125) > 1e-12 {
		t.Fatalf("comfortable budget: deadline pressure %v, want 0.125", got)
	}
}

// TestCandidatesContainGreedyPlan: the candidate set for every share
// includes the greedy baseline's plan — the precondition for the
// never-worse-than-greedy guarantee.
func TestCandidatesContainGreedyPlan(t *testing.T) {
	prof := testProfile()
	ev := newEvaluator(testMachine(t), &prof, 512)
	for c := 1; c <= 8; c++ {
		want := sched.GreedyPlan(c)
		found := false
		for _, cand := range ev.Candidates(c, nil) {
			if cand.Plan == want {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("share %d: greedy plan %+v not in candidate set", c, want)
		}
	}
}

// TestOptimizerNeverWorseThanGreedy: across machine sizes and stream mixes,
// the optimizer's plans are valid and its modeled total score never exceeds
// the greedy division's.
func TestOptimizerNeverWorseThanGreedy(t *testing.T) {
	arch := platform.Blackford()
	machine := testMachine(t)
	mixes := [][]sched.StreamDemand{
		{
			{TotalMs: 30, BudgetMs: 40, FrameKB: 512, Profile: testProfile()},
		},
		{
			{TotalMs: 30, BudgetMs: 40, FrameKB: 512, Profile: testProfile()},
			{TotalMs: 10, BudgetMs: 40, FrameKB: 512, Profile: testProfile()},
		},
		{
			{TotalMs: 30, BudgetMs: 15, FrameKB: 512, Profile: testProfile()},
			{TotalMs: 30, BudgetMs: 15, FrameKB: 512, Profile: testProfile()},
			{TotalMs: 30, BudgetMs: 15, FrameKB: 256, Profile: testProfile()},
		},
	}
	for _, cores := range []int{2, 4, 8} {
		for mi, demands := range mixes {
			n := len(demands)
			if cores < n {
				continue
			}
			opt, err := NewOptimizer(arch)
			if err != nil {
				t.Fatal(err)
			}
			plans := make([]sched.StreamPlan, n)
			if err := opt.Map(cores, demands, plans); err != nil {
				t.Fatalf("cores %d mix %d: %v", cores, mi, err)
			}
			if err := sched.ValidatePlans(cores, plans); err != nil {
				t.Fatalf("cores %d mix %d: invalid plans: %v", cores, mi, err)
			}
			greedyPlans := make([]sched.StreamPlan, n)
			var g sched.GreedyMapper
			if err := g.Map(cores, demands, greedyPlans); err != nil {
				t.Fatal(err)
			}
			score := func(ps []sched.StreamPlan) float64 {
				total := 0.0
				for i := range ps {
					d := &demands[i]
					ev := newEvaluator(machine, &d.Profile, d.FrameKB)
					serial := ev.Evaluate(sched.StreamPlan{Cores: 1})
					w := ComputePressures(serial.LatencyMs, d.BudgetMs, n, cores, ev.meanCutMs()).Softmax()
					total += w.Score(ev.Evaluate(ps[i]), serial)
				}
				return total
			}
			if os, gs := score(plans), score(greedyPlans); os > gs*(1+1e-9) {
				t.Fatalf("cores %d mix %d: optimizer score %v worse than greedy %v", cores, mi, os, gs)
			}
		}
	}
}

// TestOptimizerFallsBackWithoutProfile: until every stream has a cost
// profile, and whenever the machine is oversubscribed, the optimizer must
// reproduce the greedy division exactly.
func TestOptimizerFallsBackWithoutProfile(t *testing.T) {
	arch := platform.Blackford()
	opt, err := NewOptimizer(arch)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		cores   int
		demands []sched.StreamDemand
	}{
		{"no profile", 8, []sched.StreamDemand{
			{TotalMs: 30, Profile: testProfile()},
			{TotalMs: 10}, // Frames == 0: scalar only
		}},
		{"oversubscribed", 2, []sched.StreamDemand{
			{TotalMs: 30, Profile: testProfile()},
			{TotalMs: 20, Profile: testProfile()},
			{TotalMs: 10, Profile: testProfile()},
		}},
	}
	for _, tc := range cases {
		opt.LastParetoPoints = 99
		plans := make([]sched.StreamPlan, len(tc.demands))
		if err := opt.Map(tc.cores, tc.demands, plans); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if opt.LastParetoPoints != 0 {
			t.Fatalf("%s: fallback left LastParetoPoints = %d", tc.name, opt.LastParetoPoints)
		}
		want := make([]sched.StreamPlan, len(tc.demands))
		var g sched.GreedyMapper
		if err := g.Map(tc.cores, tc.demands, want); err != nil {
			t.Fatal(err)
		}
		for i := range plans {
			if plans[i] != want[i] {
				t.Fatalf("%s: stream %d plan %+v, greedy fallback wants %+v", tc.name, i, plans[i], want[i])
			}
		}
	}
}

// TestOptimizerRestructuresSingleStream: one stream owning the whole machine
// is where the graph structure matters most — the front stage is mostly
// non-partitionable while the back stage is data-parallel, so the even
// greedy split wastes back-stage cores. The optimizer must find a mapping
// the model scores strictly better and keep a non-trivial Pareto front.
func TestOptimizerRestructuresSingleStream(t *testing.T) {
	arch := platform.Blackford()
	opt, err := NewOptimizer(arch)
	if err != nil {
		t.Fatal(err)
	}
	demands := []sched.StreamDemand{
		{TotalMs: 30, BudgetMs: 40, FrameKB: 512, Profile: testProfile()},
	}
	plans := make([]sched.StreamPlan, 1)
	if err := opt.Map(arch.NumCPUs, demands, plans); err != nil {
		t.Fatal(err)
	}
	greedy := sched.GreedyPlan(arch.NumCPUs)
	if plans[0] == greedy {
		t.Fatalf("optimizer kept the even 4+4 split %+v on an asymmetric profile", plans[0])
	}
	if opt.LastParetoPoints < 1 {
		t.Fatalf("optimizer deviated from greedy with LastParetoPoints = %d", opt.LastParetoPoints)
	}
	// The chosen mapping must score strictly better than greedy's under the
	// model, past the stability margin.
	d := &demands[0]
	ev := newEvaluator(testMachine(t), &d.Profile, d.FrameKB)
	serial := ev.Evaluate(sched.StreamPlan{Cores: 1})
	w := ComputePressures(serial.LatencyMs, d.BudgetMs, 1, arch.NumCPUs, ev.meanCutMs()).Softmax()
	os, gs := w.Score(ev.Evaluate(plans[0]), serial), w.Score(ev.Evaluate(greedy), serial)
	if os >= gs*(1-preferGreedyMargin) {
		t.Fatalf("optimizer deviated to %+v without a material win: score %v vs greedy %v", plans[0], os, gs)
	}
}
