package mapping

import (
	"math"
	"math/rand"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/sched"
	"triplec/internal/tasks"
)

// This file keeps the enumerating optimizer the stage tables replaced as the
// reference the differential tests compare against: every candidate
// re-derives its stage times from the profile (one StripedMs per task per
// candidate per scenario), every Map allocates its tables afresh, and the
// greedy-margin check rebuilds each stream's evaluator. It is slow and
// obviously the model; Optimizer.Map must reproduce it bit for bit.

type oracleEvaluator struct {
	machine *platform.Machine
	arch    platform.Arch
	prof    *pipeline.CostProfile
	cutMs   [pipeline.NumScenarios]float64
	memMs   [pipeline.NumScenarios]float64
}

func newOracleEvaluator(machine *platform.Machine, prof *pipeline.CostProfile, frameKB int) *oracleEvaluator {
	ev := &oracleEvaluator{machine: machine, arch: machine.Arch(), prof: prof}
	for s := range prof.Weight {
		if prof.Weight[s] <= 0 {
			continue
		}
		traffic := 0.0
		for ti := range prof.Cost[s] {
			traffic += prof.Cost[s][ti].MemBytes
		}
		ev.memMs[s] = RooflineMs(traffic, ev.arch)
		if frameKB > 0 {
			if cutKB, err := flowgraph.FromIndex(s).CutKB(frameKB); err == nil {
				ev.cutMs[s] = RooflineMs(float64(cutKB)*1024, ev.arch)
			}
		}
	}
	return ev
}

func (ev *oracleEvaluator) stageMs(s, cf, cb int) (front, back float64) {
	names := tasks.AllNames()
	for ti, name := range names {
		c := ev.prof.Cost[s][ti]
		if c.Cycles <= 0 && c.MemBytes <= 0 {
			continue
		}
		if flowgraph.StageOf(name) == flowgraph.StageBack {
			back += ev.machine.StripedMs(c, partition.MaxStripes(name, cb))
		} else {
			front += ev.machine.StripedMs(c, partition.MaxStripes(name, cf))
		}
	}
	return front, back
}

func (ev *oracleEvaluator) Evaluate(p sched.StreamPlan) Candidate {
	cand := Candidate{Plan: p}
	for s := range ev.prof.Weight {
		w := ev.prof.Weight[s]
		if w <= 0 {
			continue
		}
		var lat, period, comm float64
		if p.Pipelined {
			f, b := ev.stageMs(s, p.FrontCores, p.BackCores)
			comm = ev.cutMs[s]
			lat = f + b + comm
			period = math.Max(math.Max(f, b), ev.memMs[s]) + comm
		} else {
			k := p.Cores
			if k < 1 {
				k = 1
			}
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

func (ev *oracleEvaluator) Candidates(c int, out []Candidate) []Candidate {
	out = out[:0]
	if c < 1 {
		return out
	}
	out = append(out, ev.Evaluate(sched.StreamPlan{Cores: 1}))
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

func (ev *oracleEvaluator) meanCutMs() float64 {
	total := 0.0
	for s := range ev.prof.Weight {
		total += ev.prof.Weight[s] * ev.cutMs[s]
	}
	return total
}

// oracleMap is Optimizer.Map as it stood before the stage tables; it returns
// what Map leaves in LastParetoPoints.
func oracleMap(machine *platform.Machine, totalCores int, demands []sched.StreamDemand, plans []sched.StreamPlan) (points int, err error) {
	var greedy sched.GreedyMapper
	n := len(demands)
	structured := totalCores >= n
	for i := range demands {
		if demands[i].Profile.Frames == 0 {
			structured = false
		}
	}
	if !structured {
		return 0, greedy.Map(totalCores, demands, plans)
	}

	maxShare := totalCores - (n - 1)
	bestPlan := make([][]sched.StreamPlan, n)
	bestScore := make([][]float64, n)
	bestPoints := make([][]int, n)
	var candBuf []Candidate
	for i := range demands {
		d := &demands[i]
		ev := newOracleEvaluator(machine, &d.Profile, d.FrameKB)
		serial := ev.Evaluate(sched.StreamPlan{Cores: 1})
		w := ComputePressures(serial.LatencyMs, d.BudgetMs, n, totalCores, ev.meanCutMs()).Softmax()
		bestPlan[i] = make([]sched.StreamPlan, maxShare+1)
		bestScore[i] = make([]float64, maxShare+1)
		bestPoints[i] = make([]int, maxShare+1)
		for c := 1; c <= maxShare; c++ {
			candBuf = ev.Candidates(c, candBuf)
			front := ParetoFront(candBuf)
			pick := Pick(front, w, serial)
			score := w.Score(pick, serial)
			if c > 1 && bestScore[i][c-1] <= score {
				bestPlan[i][c] = bestPlan[i][c-1]
				bestScore[i][c] = bestScore[i][c-1]
				bestPoints[i][c] = bestPoints[i][c-1]
				continue
			}
			bestPlan[i][c] = pick.Plan
			bestScore[i][c] = score
			bestPoints[i][c] = len(front)
		}
	}

	const inf = math.MaxFloat64
	f := make([][]float64, n+1)
	choice := make([][]int, n+1)
	for j := range f {
		f[j] = make([]float64, totalCores+1)
		choice[j] = make([]int, totalCores+1)
		for c := range f[j] {
			f[j][c] = inf
		}
	}
	f[0][0] = 0
	for j := 1; j <= n; j++ {
		for c := j; c <= totalCores-(n-j); c++ {
			for k := 1; k <= c-(j-1) && k <= maxShare; k++ {
				if f[j-1][c-k] == inf {
					continue
				}
				if s := f[j-1][c-k] + bestScore[j-1][k]; s < f[j][c] {
					f[j][c] = s
					choice[j][c] = k
				}
			}
		}
	}
	if f[n][totalCores] == inf {
		return 0, greedy.Map(totalCores, demands, plans)
	}

	c := totalCores
	for j := n; j >= 1; j-- {
		k := choice[j][c]
		plans[j-1] = bestPlan[j-1][k]
		points += bestPoints[j-1][k]
		c -= k
	}

	greedyPlans := make([]sched.StreamPlan, n)
	if err := greedy.Map(totalCores, demands, greedyPlans); err == nil {
		greedyScore := 0.0
		for i, gp := range greedyPlans {
			d := &demands[i]
			ev := newOracleEvaluator(machine, &d.Profile, d.FrameKB)
			serial := ev.Evaluate(sched.StreamPlan{Cores: 1})
			w := ComputePressures(serial.LatencyMs, d.BudgetMs, n, totalCores, ev.meanCutMs()).Softmax()
			greedyScore += w.Score(ev.Evaluate(gp), serial)
		}
		if f[n][totalCores] >= greedyScore*(1-preferGreedyMargin) {
			copy(plans, greedyPlans)
			return 0, nil
		}
	}
	return points, nil
}

// randomProfile draws a cost profile with `active` scenarios of positive
// weight. Roughly a third of the task costs are zero (tasks the scenario
// never runs), and a stream is skewed front- or back-heavy so the candidates
// do not all collapse onto one shape.
func randomProfile(rng *rand.Rand, active int) pipeline.CostProfile {
	var p pipeline.CostProfile
	if active == 0 {
		// Reported, but no scenario carries weight: every candidate scores 0.
		p.Frames = 1 + rng.Intn(50)
		return p
	}
	p.Frames = 1 + rng.Intn(200)
	total := 0.0
	for _, s := range rng.Perm(pipeline.NumScenarios)[:active] {
		p.Weight[s] = 0.05 + rng.Float64()
		total += p.Weight[s]
	}
	backHeavy := 0.25 + 4*rng.Float64()
	for s := range p.Weight {
		if p.Weight[s] == 0 {
			// Stale costs under a zero weight must not leak into any score.
			if rng.Intn(2) == 0 {
				p.Cost[s][rng.Intn(tasks.NumNames)] = platform.Cost{Cycles: 1e9, MemBytes: 1e9}
			}
			continue
		}
		p.Weight[s] /= total
		for ti, name := range tasks.AllNames() {
			switch rng.Intn(6) {
			case 0, 1:
				continue
			case 2:
				p.Cost[s][ti].Cycles = rng.Float64() * 2e7 // compute only
				continue
			case 3:
				p.Cost[s][ti].MemBytes = rng.Float64() * float64(4<<20) // traffic only
				continue
			}
			c := platform.Cost{Cycles: rng.Float64() * 2e7, MemBytes: rng.Float64() * float64(4<<20)}
			if flowgraph.StageOf(name) == flowgraph.StageBack {
				c = c.Scale(backHeavy)
			}
			p.Cost[s][ti] = c
		}
	}
	return p
}

func randomDemands(rng *rand.Rand, n int) []sched.StreamDemand {
	demands := make([]sched.StreamDemand, n)
	for i := range demands {
		d := &demands[i]
		d.TotalMs = rng.Float64() * 60
		if rng.Intn(4) > 0 {
			d.BudgetMs = 5 + rng.Float64()*60
		}
		d.FrameKB = []int{0, 2, 512}[rng.Intn(3)]
		if rng.Intn(12) > 0 { // one in twelve streams has not reported a profile
			d.Profile = randomProfile(rng, rng.Intn(pipeline.NumScenarios+1))
		}
	}
	return demands
}

// TestMapMatchesEnumeratingOracle: one long-lived Optimizer, fed random
// stream mixes of changing size, returns exactly the enumerating oracle's
// plans and Pareto-point count — structured divisions, the missing-profile
// and oversubscribed fallbacks, machines larger than the modeled core count.
func TestMapMatchesEnumeratingOracle(t *testing.T) {
	machine := testMachine(t)
	opt, err := NewOptimizer(platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(17))
	structured, deviated := 0, 0
	for iter := 0; iter < 2500; iter++ {
		n := 1 + rng.Intn(4)
		cores := 1 + rng.Intn(16)
		demands := randomDemands(rng, n)
		want := make([]sched.StreamPlan, n)
		wantPoints, wantErr := oracleMap(machine, cores, demands, want)
		got := make([]sched.StreamPlan, n)
		opt.LastParetoPoints = -1
		gotErr := opt.Map(cores, demands, got)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("iter %d (%d streams, %d cores): error %v, oracle %v", iter, n, cores, gotErr, wantErr)
		}
		if gotErr != nil {
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("iter %d (%d streams, %d cores): stream %d plan %+v, oracle %+v", iter, n, cores, i, got[i], want[i])
			}
		}
		if opt.LastParetoPoints != wantPoints {
			t.Fatalf("iter %d (%d streams, %d cores): LastParetoPoints %d, oracle %d", iter, n, cores, opt.LastParetoPoints, wantPoints)
		}
		if cores >= n {
			structured++
		}
		if wantPoints > 0 {
			deviated++
		}
	}
	// The comparison must have exercised the optimizer proper, not only its
	// fallbacks and the hold-to-greedy margin.
	if structured < 1000 || deviated < 200 {
		t.Fatalf("weak coverage: %d structured divisions, %d deviating from greedy", structured, deviated)
	}
}

// TestEvaluateMatchesOracle: every candidate of every share scores the same
// three criteria, bit for bit, from the table as from the profile.
func TestEvaluateMatchesOracle(t *testing.T) {
	machine := testMachine(t)
	tables := newStageTables(machine)
	rng := rand.New(rand.NewSource(5))
	var ev evaluator
	for iter := 0; iter < 300; iter++ {
		prof := randomProfile(rng, rng.Intn(pipeline.NumScenarios+1))
		frameKB := []int{0, 2, 512}[rng.Intn(3)]
		ev.fill(tables, &prof, frameKB)
		ref := newOracleEvaluator(machine, &prof, frameKB)
		if got, want := ev.meanCutMs(), ref.meanCutMs(); got != want {
			t.Fatalf("iter %d: meanCutMs %v, oracle %v", iter, got, want)
		}
		for c := 0; c <= 12; c++ {
			got, want := ev.Candidates(c, nil), ref.Candidates(c, nil)
			if len(got) != len(want) {
				t.Fatalf("iter %d share %d: %d candidates, oracle %d", iter, c, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("iter %d share %d: candidate %+v, oracle %+v", iter, c, got[i], want[i])
				}
			}
		}
		// Plans no enumeration produces but a mapper may hand in.
		for _, p := range []sched.StreamPlan{
			{},
			{Cores: 0, Striped: true},
			{Cores: 3},
			{Cores: 40, Striped: true},
			{Cores: 4, Pipelined: true, FrontCores: 0, BackCores: 4},
			{Cores: 20, Pipelined: true, FrontCores: 9, BackCores: 11},
		} {
			if got, want := ev.Evaluate(p), ref.Evaluate(p); got != want {
				t.Fatalf("iter %d plan %+v: %+v, oracle %+v", iter, p, got, want)
			}
		}
	}
}

// TestMapAllocFree: a warmed optimizer re-divides without allocating, on the
// structured path and on both fallbacks.
func TestMapAllocFree(t *testing.T) {
	opt, err := NewOptimizer(platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(3))
	demands := randomDemands(rng, 3)
	for i := range demands {
		demands[i].Profile = randomProfile(rng, 4)
	}
	plans := make([]sched.StreamPlan, len(demands))
	cases := []struct {
		name  string
		cores int
		prep  func()
	}{
		{"structured", 8, func() {}},
		{"oversubscribed", 2, func() {}},
		{"no profile", 8, func() { demands[1].Profile = pipeline.CostProfile{} }},
	}
	for _, tc := range cases {
		tc.prep()
		if err := opt.Map(tc.cores, demands, plans); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			if err := opt.Map(tc.cores, demands, plans); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s: warmed Map allocates %v per call, want 0", tc.name, allocs)
		}
	}
}

// TestRedivideWithOptimizerAllocFree: the arbiter's per-frame control step —
// fold a stream's report, re-divide through the optimizer — allocates
// nothing. (internal/sched pins the same for the greedy mapper; it cannot
// import this package.)
func TestRedivideWithOptimizerAllocFree(t *testing.T) {
	opt, err := NewOptimizer(platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	mm, err := sched.NewMultiManager(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	mm.Mapper = opt
	rng := rand.New(rand.NewSource(9))
	reports := randomDemands(rng, 2)
	for i := range reports {
		reports[i].Profile = randomProfile(rng, 3)
		reports[i].FrameKB = 2
	}
	step := func() {
		for i := range reports {
			mm.ReportStream(i, &reports[i])
		}
		mm.Redivide()
	}
	step()
	step()
	before := mm.Rebalances()
	if allocs := testing.AllocsPerRun(100, step); allocs != 0 {
		t.Fatalf("ReportStream+Redivide through the optimizer allocates %v per step, want 0", allocs)
	}
	if mm.Rebalances() == before {
		t.Fatal("no re-division was applied while measuring")
	}
}

func BenchmarkOptimizerMap(b *testing.B) {
	opt, err := NewOptimizer(platform.Blackford())
	if err != nil {
		b.Fatal(err)
	}
	demands := []sched.StreamDemand{{TotalMs: 30, BudgetMs: 40, FrameKB: 2, Profile: randomProfile(rand.New(rand.NewSource(1)), 3)}}
	plans := make([]sched.StreamPlan, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := opt.Map(8, demands, plans); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOracleMap(b *testing.B) {
	machine := testMachine(b)
	demands := []sched.StreamDemand{{TotalMs: 30, BudgetMs: 40, FrameKB: 2, Profile: randomProfile(rand.New(rand.NewSource(1)), 3)}}
	plans := make([]sched.StreamPlan, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := oracleMap(machine, 8, demands, plans); err != nil {
			b.Fatal(err)
		}
	}
}
