package mapping

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
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
	var cand Candidate
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

func (ev *oracleEvaluator) Candidates(c int, out []planned) []planned {
	return enumerate(c, out, ev.Evaluate)
}

func (ev *oracleEvaluator) meanCutMs() float64 {
	total := 0.0
	for s := range ev.prof.Weight {
		total += ev.prof.Weight[s] * ev.cutMs[s]
	}
	return total
}

// The candidate-list form of the per-share pick, which Optimizer.Map now
// makes from flat per-candidate arrays: enumerate a share's candidates,
// compact them to the Pareto front, pick the minimum score off it.

// planned is a candidate with the plan it evaluates.
type planned struct {
	Plan sched.StreamPlan
	Candidate
}

// enumerate lists the mapping space of a share of c cores with evaluate's
// criteria: serial for one core; for larger shares, serial, full striping
// without pipelining, and every front/back core partition of the window-2
// pipeline.
func enumerate(c int, out []planned, evaluate func(sched.StreamPlan) Candidate) []planned {
	out = out[:0]
	if c < 1 {
		return out
	}
	add := func(p sched.StreamPlan) { out = append(out, planned{p, evaluate(p)}) }
	add(sched.StreamPlan{Cores: 1})
	if c < 2 {
		return out
	}
	add(sched.StreamPlan{Cores: c, Striped: true})
	for cf := 1; cf < c; cf++ {
		add(sched.StreamPlan{Cores: c, Pipelined: true, FrontCores: cf, BackCores: c - cf})
	}
	return out
}

// Candidates enumerates the stream's mapping space for a share of c cores.
func (ev *evaluator) Candidates(c int, out []planned) []planned {
	return enumerate(c, out, ev.Evaluate)
}

// ParetoFront compacts cands down to the non-dominated set over
// (latency, period), preserving enumeration order. When two candidates tie
// exactly on both criteria the earlier one is kept. The returned slice
// aliases cands.
func ParetoFront(cands []planned) []planned {
	n := len(cands)
	// Mark first, compact second: the survivor test must read the original
	// set, not a partially compacted one.
	keep := 0
	for i := 0; i < n; i++ {
		c := cands[i]
		dominated := false
		for j := 0; j < n && !dominated; j++ {
			if i == j {
				continue
			}
			o := cands[j]
			if dominates(o.Candidate, c.Candidate) {
				dominated = true
			} else if j < i && o.LatencyMs == c.LatencyMs && o.PeriodMs == c.PeriodMs {
				// Exact tie: keep only the first.
				dominated = true
			}
		}
		if !dominated {
			cands[i], cands[keep] = cands[keep], cands[i]
			// The swap is safe: position keep ≤ i has already been
			// classified, and classification only reads values, which the
			// swap permutes but never loses.
			keep++
		}
	}
	return cands[:keep]
}

// Pick chooses one point off the Pareto front by minimum weighted score;
// ties resolve to the earlier (simpler) candidate. An empty front returns a
// zero candidate.
func Pick(front []planned, w Weights, serialRef Candidate) planned {
	var best planned
	bestScore := math.Inf(1)
	for _, c := range front {
		if s := w.Score(c.Candidate, serialRef); s < bestScore {
			best, bestScore = c, s
		}
	}
	return best
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
	var candBuf []planned
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
			score := w.Score(pick.Candidate, serial)
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

// checkedMapper is the optimizer behind a MultiManager with the enumerating
// oracle run beside it on every division the manager asks for; it keeps the
// first disagreement.
type checkedMapper struct {
	opt      *Optimizer
	machine  *platform.Machine
	calls    int
	deviated int // divisions the oracle moved off the greedy plans
	err      error

	// the last division's core count and demands
	cores   int
	demands []sched.StreamDemand
}

func (c *checkedMapper) Name() string { return "checked" }

func (c *checkedMapper) Map(totalCores int, demands []sched.StreamDemand, plans []sched.StreamPlan) error {
	c.cores, c.demands = totalCores, append(c.demands[:0], demands...)
	want := make([]sched.StreamPlan, len(plans))
	wantPoints, wantErr := oracleMap(c.machine, totalCores, demands, want)
	c.opt.LastParetoPoints = -1
	err := c.opt.Map(totalCores, demands, plans)
	c.calls++
	if wantPoints > 0 {
		c.deviated++
	}
	if c.err == nil && err == nil && c.structured(totalCores, demands) {
		c.err = c.checkCriteria(totalCores, len(demands))
	}
	switch {
	case c.err != nil:
	case (err == nil) != (wantErr == nil):
		c.err = fmt.Errorf("division %d (%d streams, %d cores): error %v, oracle %v", c.calls, len(demands), totalCores, err, wantErr)
	case err != nil:
	case c.opt.LastParetoPoints != wantPoints:
		c.err = fmt.Errorf("division %d (%d streams, %d cores): LastParetoPoints %d, oracle %d", c.calls, len(demands), totalCores, c.opt.LastParetoPoints, wantPoints)
	default:
		for i := range want {
			if plans[i] != want[i] {
				c.err = fmt.Errorf("division %d (%d streams, %d cores): stream %d plan %+v, oracle %+v", c.calls, len(demands), totalCores, i, plans[i], want[i])
				break
			}
		}
	}
	return err
}

// structured reports whether Map scores the division rather than handing
// it to the greedy mapper.
func (c *checkedMapper) structured(totalCores int, demands []sched.StreamDemand) bool {
	for i := range demands {
		if demands[i].Profile.Frames == 0 {
			return false
		}
	}
	return totalCores >= len(demands)
}

// checkCriteria checks that every term the evaluators kept is current: each
// stream's weighted criteria equal Evaluate's, bit for bit, on every
// candidate.
func (c *checkedMapper) checkCriteria(totalCores, n int) error {
	plans := c.opt.plans[:numCandidates(totalCores-(n-1))]
	got := make([]Candidate, len(plans))
	for i := 0; i < n; i++ {
		ev := &c.opt.streams[i].ev
		ev.weigh(plans, got)
		for j, p := range plans {
			want := ev.Evaluate(p)
			if !sameBits(got[j].LatencyMs, want.LatencyMs) || !sameBits(got[j].PeriodMs, want.PeriodMs) || !sameBits(got[j].CommMs, want.CommMs) {
				return fmt.Errorf("division %d: stream %d plan %+v weighed %+v, Evaluate %+v", c.calls, i, p, got[j], want)
			}
		}
	}
	return nil
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestMapFoldedMatchesOracle: one long-lived Optimizer behind a
// MultiManager, re-dividing after every one-frame, one-scenario report the
// manager folds in — the serving loop's pattern, in which Map re-scores only
// the scenario whose cost row moved — returns exactly the enumerating
// oracle's plans and Pareto-point count at every division. The phases change
// the core count under the same optimizer; along the way a stream is retired
// (the later streams' positions shift), FrameKB changes, scenarios first
// take weight, and cost rows hold -0 and NaN. The manager drops a report
// with a NaN cost, so the NaN row is handed to Map directly, between two
// folded divisions.
func TestMapFoldedMatchesOracle(t *testing.T) {
	checked := &checkedMapper{machine: testMachine(t)}
	var err error
	if checked.opt, err = NewOptimizer(platform.Blackford()); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(23))
	negZero := math.Copysign(0, -1)
	type phase struct {
		cores, streams, steps int
		retireAt, kbAt, nanAt int // step of the event; -1: none
	}
	phases := []phase{
		{cores: 8, streams: 3, steps: 1000, retireAt: 600, kbAt: -1, nanAt: -1},
		{cores: 12, streams: 2, steps: 800, retireAt: -1, kbAt: 400, nanAt: -1},
		{cores: 8, streams: 1, steps: 800, retireAt: -1, kbAt: -1, nanAt: -1},
		{cores: 6, streams: 4, steps: 600, retireAt: 450, kbAt: 150, nanAt: 300},
	}
	steps, firstWeights, negZeros, nans := 0, 0, 0, 0
	for pi, ph := range phases {
		mm, err := sched.NewMultiManager(ph.cores, ph.streams)
		if err != nil {
			t.Fatal(err)
		}
		mm.Mapper = checked
		bases := make([]pipeline.CostProfile, ph.streams)
		frameKB := make([]int, ph.streams)
		// weighted[i][s]: scenario s carries weight in stream i's profile.
		weighted := make([][pipeline.NumScenarios]bool, ph.streams)
		for i := range bases {
			bases[i] = randomProfile(rng, pipeline.NumScenarios)
			frameKB[i] = 2
			// The first report is taken verbatim: a profile with some
			// scenarios still weightless, and -0 in its cost rows.
			first := sched.StreamDemand{TotalMs: 30, BudgetMs: 40, FrameKB: frameKB[i], Profile: randomProfile(rng, 1+rng.Intn(4))}
			for s := range first.Profile.Cost {
				for ti := range first.Profile.Cost[s] {
					if c := &first.Profile.Cost[s][ti]; c.Cycles > 0 && rng.Intn(3) == 0 {
						c.MemBytes = negZero
						negZeros++
					}
				}
			}
			for s, w := range first.Profile.Weight {
				weighted[i][s] = w > 0
			}
			mm.ReportStream(i, &first)
		}
		live := make([]int, ph.streams)
		for i := range live {
			live[i] = i
		}
		mm.Redivide()
		for step := 0; step < ph.steps; step++ {
			switch step {
			case ph.retireAt:
				mid := len(live) / 2
				mm.Retire(live[mid])
				live = append(live[:mid], live[mid+1:]...)
			case ph.kbAt:
				frameKB[live[0]] = 512
			}
			i := live[rng.Intn(len(live))]
			rep := oneFrameReports(rng, &bases[i], 1)[0]
			rep.FrameKB = frameKB[i]
			s := 0
			for s < pipeline.NumScenarios && rep.Profile.Weight[s] == 0 {
				s++
			}
			if !weighted[i][s] {
				weighted[i][s] = true
				firstWeights++
			}
			mm.ReportStream(i, &rep)
			mm.Redivide()
			if step == ph.nanAt {
				d := append([]sched.StreamDemand(nil), checked.demands...)
				d[slices.Index(live, i)].Profile.Cost[s][rng.Intn(tasks.NumNames)].Cycles = math.NaN()
				_ = checked.Map(checked.cores, d, make([]sched.StreamPlan, len(d)))
				nans++
			}
			steps++
			if checked.err != nil {
				t.Fatalf("phase %d step %d: %v", pi, step, checked.err)
			}
		}
	}
	t.Logf("%d steps, %d divisions, %d deviating from greedy, %d scenarios first weighted", steps, checked.calls, checked.deviated, firstWeights)
	if steps < 3000 || checked.calls < steps {
		t.Fatalf("%d steps, %d divisions checked", steps, checked.calls)
	}
	if checked.deviated < 300 || firstWeights < 10 || negZeros == 0 || nans == 0 {
		t.Fatalf("weak coverage: %d divisions deviating from greedy, %d scenarios first weighted, %d -0 entries, %d NaN entries",
			checked.deviated, firstWeights, negZeros, nans)
	}
}

// TestNaNReportDropped: the manager drops a report whose profile holds a
// NaN cost, so the optimizer divides after it and 1,000 clean reports
// exactly as after the clean reports alone, instead of scoring the stream
// NaN (and falling back to the greedy division) for the rest of the run.
func TestNaNReportDropped(t *testing.T) {
	run := func(poison bool) (plans []sched.StreamPlan, paretoPoints int) {
		opt, err := NewOptimizer(platform.Blackford())
		if err != nil {
			t.Fatal(err)
		}
		rec := &recordingMapper{opt: opt}
		mm, err := sched.NewMultiManager(8, 2)
		if err != nil {
			t.Fatal(err)
		}
		mm.Mapper = rec
		rng := rand.New(rand.NewSource(31))
		bases := []pipeline.CostProfile{randomProfile(rng, pipeline.NumScenarios), randomProfile(rng, pipeline.NumScenarios)}
		for i := range bases {
			mm.ReportStream(i, &sched.StreamDemand{TotalMs: 30, BudgetMs: 40, FrameKB: 2, Profile: bases[i]})
		}
		if poison {
			bad := oneFrameReports(rand.New(rand.NewSource(7)), &bases[0], 1)[0]
			for s, w := range bad.Profile.Weight {
				if w > 0 {
					bad.Profile.Cost[s][0].Cycles = math.NaN()
				}
			}
			mm.ReportStream(0, &bad)
		}
		for step := 0; step < 1000; step++ {
			i := step % 2
			rep := oneFrameReports(rng, &bases[i], 1)[0]
			mm.ReportStream(i, &rep)
			mm.Redivide()
			paretoPoints += opt.LastParetoPoints
		}
		return rec.plans, paretoPoints
	}
	clean, cleanPoints := run(false)
	poisoned, poisonedPoints := run(true)
	if len(clean) != 2000 || !slices.Equal(clean, poisoned) {
		t.Fatalf("plans after a NaN report differ from the clean run's (%d vs %d plans)", len(poisoned), len(clean))
	}
	if cleanPoints == 0 || poisonedPoints != cleanPoints {
		t.Fatalf("Pareto points %d after a NaN report, %d in the clean run", poisonedPoints, cleanPoints)
	}
}

// recordingMapper is an optimizer that keeps every plan it returns.
type recordingMapper struct {
	opt   *Optimizer
	plans []sched.StreamPlan
}

func (r *recordingMapper) Name() string { return "recording" }

func (r *recordingMapper) Map(totalCores int, demands []sched.StreamDemand, plans []sched.StreamPlan) error {
	err := r.opt.Map(totalCores, demands, plans)
	r.plans = append(r.plans, plans...)
	return err
}

// TestPickFrontMatchesParetoPick: the flat-array pick keeps the candidate-
// list pick's rules — the later of two exact ties leaves the front, the
// earliest of equal scores wins, and a front with no score below +Inf picks
// nothing — on candidate sets drawn from a few values, so that ties, NaN and
// infinities are common.
func TestPickFrontMatchesParetoPick(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	pool := []float64{1, 2, 3, math.Inf(1), math.NaN()}
	draw := func() float64 { return pool[rng.Intn(len(pool))] }
	for iter := 0; iter < 20000; iter++ {
		n := 1 + rng.Intn(9)
		cands := make([]planned, n)
		evals := make([]Candidate, n)
		score := make([]float64, n)
		w := Weights{Latency: draw(), Throughput: draw(), Comm: draw()}
		serial := Candidate{LatencyMs: draw(), PeriodMs: draw()}
		for i := range cands {
			evals[i] = Candidate{LatencyMs: draw(), PeriodMs: draw(), CommMs: draw()}
			cands[i] = planned{sched.StreamPlan{Cores: i + 1}, evals[i]}
			score[i] = w.Score(evals[i], serial)
		}
		best, points := pickFront(evals, score)
		front := ParetoFront(append([]planned(nil), cands...))
		want := Pick(front, w, serial)
		got := planned{}
		if best >= 0 {
			got = cands[best]
		}
		if points != len(front) || got.Plan != want.Plan {
			t.Fatalf("iter %d: picked %d of a %d-point front, want candidate %d of %d (cands %+v, weights %+v)",
				iter, best, points, want.Plan.Cores-1, len(front), cands, w)
		}
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

// oneFrameReports draws k one-frame reports of a stream whose scenarios all
// carry weight: each observes one scenario, with that scenario's cost row
// jittered around base's — what a serving stream reports after every frame.
func oneFrameReports(rng *rand.Rand, base *pipeline.CostProfile, k int) []sched.StreamDemand {
	reports := make([]sched.StreamDemand, k)
	for i := range reports {
		r := &reports[i]
		r.TotalMs, r.BudgetMs, r.FrameKB = 20+10*rng.Float64(), 40, 2
		s := rng.Intn(pipeline.NumScenarios)
		r.Profile.Frames = 1
		r.Profile.Weight[s] = 1
		for ti, c := range base.Cost[s] {
			r.Profile.Cost[s][ti] = c.Scale(0.8 + 0.4*rng.Float64())
		}
	}
	return reports
}

// BenchmarkOptimizerMapFolded is the arbiter's per-frame re-division: every
// Map follows the fold of a one-frame, one-scenario report into the stream's
// profile, so one scenario's cost row changes between calls.
func BenchmarkOptimizerMapFolded(b *testing.B) {
	opt, err := NewOptimizer(platform.Blackford())
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	demands := []sched.StreamDemand{{TotalMs: 30, BudgetMs: 40, FrameKB: 2, Profile: randomProfile(rng, pipeline.NumScenarios)}}
	reports := oneFrameReports(rng, &demands[0].Profile, 64)
	plans := make([]sched.StreamPlan, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		demands[0].Profile.Fold(&reports[i%len(reports)].Profile, 0.25)
		if err := opt.Map(8, demands, plans); err != nil {
			b.Fatal(err)
		}
	}
}
