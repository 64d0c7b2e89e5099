package sched

import (
	"math"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"testing"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/platform"
	"triplec/internal/tasks"
)

// This file keeps the map-keyed planner the dense Manager.Plan replaced as
// the reference of the lockstep tests: per-scenario prediction maps, the
// maximum over the plausible successors, and est/demand/kOf maps summed and
// searched in Go map iteration order. That order is why its PredictedMs is
// compared within a relative 1e-9 and not bit for bit — the dense planner's
// task-index order is the fix, the oracle keeps the defect.

// oraclePlanner plans for its own predictor, fed the same observations as
// the Manager under test, under that Manager's configuration.
type oraclePlanner struct {
	p           *core.Predictor
	m           *Manager // budget, headroom, sticky, core budget, switch cost
	lastMapping partition.Mapping
}

func oraclePredictNext(p *core.Predictor) (flowgraph.Scenario, float64) {
	scenario := flowgraph.WorstCase()
	if last, ok := p.LastScenario(); ok {
		scenario = p.ConstrainScenario(p.Scenarios.MostLikelyNext(last))
	}
	total := 0.0
	for _, task := range scenario.ActiveTasks() {
		if m, ok := p.Models[task]; ok {
			total += m.Predict(p.NextContext())
		}
	}
	return scenario, total
}

func oracleSuccessors(t *core.ScenarioTable, from flowgraph.Scenario, minP float64) []flowgraph.Scenario {
	type cand struct {
		s flowgraph.Scenario
		p float64
	}
	var cands []cand
	for i := 0; i < 8; i++ {
		to := flowgraph.FromIndex(i)
		if p := t.P(from, to); p >= minP && p > 0 {
			cands = append(cands, cand{to, p})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].p > cands[j].p })
	out := make([]flowgraph.Scenario, len(cands))
	for i, c := range cands {
		out[i] = c.s
	}
	return out
}

func oraclePredictTasksFor(p *core.Predictor, s flowgraph.Scenario, ctx core.Context) map[tasks.Name]float64 {
	out := map[tasks.Name]float64{}
	for _, task := range s.ActiveTasks() {
		if m, ok := p.Models[task]; ok {
			out[task] = m.Predict(ctx)
		}
	}
	return out
}

func (o *oraclePlanner) plan() Decision {
	_, serial := oraclePredictNext(o.p)
	if o.m.BudgetMs <= 0 {
		dec := Decision{Mapping: partition.Serial(), PredictedMs: serial, SerialMs: serial}
		o.lastMapping = dec.Mapping
		return dec
	}
	ctx := o.p.NextContext()
	var scenarios []flowgraph.Scenario
	if last, ok := o.p.LastScenario(); ok {
		for _, s := range oracleSuccessors(o.p.Scenarios, last, MinScenarioP) {
			scenarios = append(scenarios, o.p.ConstrainScenario(s))
		}
	}
	scenarios = append(scenarios, o.p.ConstrainScenario(flowgraph.WorstCase()))
	demand := map[tasks.Name]float64{}
	for _, s := range scenarios {
		for task, ms := range oraclePredictTasksFor(o.p, s, ctx) {
			if ms > demand[task] {
				demand[task] = ms
			}
		}
	}
	return o.planWithDemand(demand, serial)
}

// predictedDemandMs is the unsteered PredictedDemandMs.
func (o *oraclePlanner) predictedDemandMs() float64 {
	if last, ok := o.p.LastScenario(); ok {
		total := 0.0
		for _, task := range last.ActiveTasks() {
			if m, ok := o.p.Models[task]; ok {
				total += m.Predict(o.p.NextContext())
			}
		}
		return total
	}
	_, total := oraclePredictNext(o.p)
	return total
}

func (o *oraclePlanner) planSteered(p *core.Prediction) Decision {
	serial := p.TotalMs
	if o.m.BudgetMs <= 0 {
		dec := Decision{Mapping: partition.Serial(), PredictedMs: serial, SerialMs: serial}
		o.lastMapping = dec.Mapping
		return dec
	}
	demand := make(map[tasks.Name]float64, tasks.NumNames)
	for ti := 0; ti < tasks.NumNames; ti++ {
		if p.Mask&(uint16(1)<<uint(ti)) == 0 {
			continue
		}
		if ms := p.Ms[ti]; ms > 0 {
			demand[allTaskNames[ti]] = ms
		}
	}
	return o.planWithDemand(demand, serial)
}

func (o *oraclePlanner) maxStripesFor(task tasks.Name) int {
	maxK := partition.MaxStripes(task, o.m.arch.NumCPUs)
	if o.m.coreBudget > 0 && maxK > o.m.coreBudget {
		maxK = o.m.coreBudget
	}
	return maxK
}

func (o *oraclePlanner) planWithDemand(demand map[tasks.Name]float64, serial float64) Decision {
	m := o.m
	dec := Decision{Mapping: partition.Serial(), PredictedMs: serial, SerialMs: serial}
	budget := m.BudgetMs * m.Headroom

	if m.Sticky && o.lastMapping != nil {
		total := 0.0
		for task, ms := range demand {
			total += m.estStripedMs(ms, o.lastMapping.StripesFor(task))
		}
		if total <= budget {
			dec.Mapping = o.lastMapping
			dec.PredictedMs = total
			return dec
		}
	}

	kOf := map[tasks.Name]int{}
	est := map[tasks.Name]float64{}
	for task, ms := range demand {
		kOf[task] = 1
		est[task] = ms
	}
	total := func() float64 {
		t := 0.0
		for _, v := range est {
			t += v
		}
		return t
	}
	for total() > budget {
		var best tasks.Name
		bestGain := 0.0
		for task, ms := range est {
			maxK := o.maxStripesFor(task)
			k := kOf[task]
			if k >= maxK {
				continue
			}
			next := k * 2
			if next > maxK {
				next = maxK
			}
			gain := ms - m.estStripedMs(demand[task], next)
			if gain > bestGain {
				bestGain = gain
				best = task
			}
		}
		if bestGain <= 0 {
			break
		}
		k := kOf[best] * 2
		if maxK := o.maxStripesFor(best); k > maxK {
			k = maxK
		}
		kOf[best] = k
		est[best] = m.estStripedMs(demand[best], k)
	}

	mapping := partition.Mapping{}
	for task, k := range kOf {
		if k > 1 {
			mapping[task] = k
		}
	}
	dec.Mapping = mapping
	dec.PredictedMs = total()
	dec.Repartition = !sameMapping(mapping, o.lastMapping)
	o.lastMapping = mapping
	return dec
}

func sameMapping(a, b partition.Mapping) bool {
	if len(a) != len(b) {
		return false
	}
	for t, k := range a {
		if b[t] != k {
			return false
		}
	}
	return true
}

// planFixture is trained and profiled once: a predictor to clone and a
// 500-frame observation series. The series cycles 150 profiled frames of two
// scenes with every frame's task times rescaled by a drifting factor, so the
// demand wanders across whatever budget a test sets.
var planFixture struct {
	once    sync.Once
	trained *core.Predictor
	series  []core.Observation
}

func planTestData(t testing.TB) (*core.Predictor, []core.Observation) {
	t.Helper()
	fx := &planFixture
	fx.once.Do(func() {
		fx.trained = trainedPredictor(t)
		var base []core.Observation
		for _, seed := range []uint64{777, 31337} {
			seq := synthSeq(t, seed)
			reports, err := newEngine(t).RunSequence(75, func(j int) *frame.Frame {
				f, _ := seq.Frame(j)
				return f
			}, nil)
			if err != nil {
				t.Fatal(err)
			}
			base = append(base, core.FromReports(reports, 128*128)...)
		}
		rng := rand.New(rand.NewSource(42))
		for i := 0; i < 500; i++ {
			src := base[i%len(base)]
			scale := 1 + 0.6*math.Sin(float64(i)/17) + 0.2*rng.Float64()
			obs := src
			obs.TotalMs = 0
			for ti := range obs.Ms {
				obs.Ms[ti] *= scale
				obs.TotalMs += obs.Ms[ti]
			}
			obs.LatencyMs = obs.TotalMs
			fx.series = append(fx.series, obs)
		}
	})
	if fx.trained == nil || len(fx.series) != 500 {
		t.Fatal("plan fixture failed to build")
	}
	return fx.trained, fx.series
}

func cloneManager(t testing.TB, trained *core.Predictor) *Manager {
	t.Helper()
	p, err := trained.Clone()
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func meanSerialMs(series []core.Observation) float64 {
	sum := 0.0
	for _, o := range series {
		for _, ms := range o.Ms {
			sum += ms
		}
	}
	return sum / float64(len(series))
}

func closeRel(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-9*math.Max(math.Abs(a), math.Abs(b))
}

func checkDecision(t *testing.T, where string, got, want Decision) {
	t.Helper()
	if !sameMapping(got.Mapping, want.Mapping) || (got.Mapping == nil) != (want.Mapping == nil) {
		t.Fatalf("%s: mapping %v, oracle %v", where, got.Mapping, want.Mapping)
	}
	if got.Repartition != want.Repartition {
		t.Fatalf("%s: repartition %v, oracle %v", where, got.Repartition, want.Repartition)
	}
	if !closeRel(got.PredictedMs, want.PredictedMs) || !closeRel(got.SerialMs, want.SerialMs) {
		t.Fatalf("%s: predicted/serial %v/%v, oracle %v/%v", where, got.PredictedMs, got.SerialMs, want.PredictedMs, want.SerialMs)
	}
}

// TestPlanMatchesMapOracle drives the dense planner and the map-keyed oracle
// in lockstep over the 500-frame series under budgets tight enough that
// striping and the sticky path both fire, with and without hysteresis and a
// core budget, through a profiling-mode prefix and a mid-run budget change.
func TestPlanMatchesMapOracle(t *testing.T) {
	trained, series := planTestData(t)
	mean := meanSerialMs(series)
	cases := []struct {
		name       string
		sticky     bool
		budgetFrac float64
		coreBudget int
	}{
		{"sticky tight", true, 0.55, 0},
		{"sticky mid", true, 0.8, 0},
		{"churny tight", false, 0.55, 0},
		{"sticky 3 cores", true, 0.45, 3},
		{"churny 2 cores", false, 0.7, 2},
	}
	for _, tc := range cases {
		m := cloneManager(t, trained)
		oracle := &oraclePlanner{p: cloneManager(t, trained).predictor, m: m}
		if got, want := m.PredictedDemandMs(), oracle.predictedDemandMs(); got != want {
			t.Fatalf("%s: cold demand %v, oracle %v", tc.name, got, want)
		}
		m.Sticky = tc.sticky
		if err := m.SetCoreBudget(tc.coreBudget); err != nil {
			t.Fatal(err)
		}
		kept, striped, repartitions := 0, 0, 0
		for i, obs := range series {
			switch i {
			case 3: // the first plans run in profiling mode (no budget)
				m.BudgetMs = tc.budgetFrac * mean
			case 300:
				m.BudgetMs *= 1.3
			case 400:
				m.BudgetMs /= 1.3
			}
			want := oracle.plan()
			got := m.Plan()
			checkDecision(t, tc.name+" frame "+strconv.Itoa(i), got, want)
			if len(got.Mapping) > 0 {
				striped++
			}
			if got.Repartition {
				repartitions++
			} else if i > 3 && len(got.Mapping) > 0 {
				kept++
			}
			m.Observe(obs)
			oracle.p.Observe(obs)
			if got, want := m.PredictedDemandMs(), oracle.predictedDemandMs(); got != want {
				t.Fatalf("%s frame %d: demand %v, oracle %v", tc.name, i, got, want)
			}
		}
		if striped < 50 || repartitions < 5 || kept < 20 {
			t.Fatalf("%s: weak coverage: %d striped plans, %d repartitions, %d striped mappings kept", tc.name, striped, repartitions, kept)
		}
	}
}

// seriesSource is a steering source that forecasts the previous frame's task
// times: a deterministic stand-in for a promoted shadow backend.
type seriesSource struct {
	pred core.Prediction
	ok   bool
}

func (s *seriesSource) DemandInto(dst *core.Prediction) bool {
	*dst = s.pred
	return s.ok
}

func (s *seriesSource) SourceName() string { return "series" }

func (s *seriesSource) observe(obs *core.Observation) {
	s.pred = core.Prediction{Scenario: obs.Scenario, Ms: obs.Ms, Mask: obs.Mask, TotalMs: obs.TotalMs}
	s.ok = true
}

// TestPlanSteeredMatchesMapOracle: the steered path shares the dense
// planner; it must agree with the oracle's steered path, including masked-out
// and non-positive forecast entries.
func TestPlanSteeredMatchesMapOracle(t *testing.T) {
	trained, series := planTestData(t)
	m := cloneManager(t, trained)
	oracle := &oraclePlanner{p: m.predictor, m: m}
	m.Sticky = true
	m.BudgetMs = 0.6 * meanSerialMs(series)
	src := &seriesSource{}
	m.SetDemandSource(src)
	steered := 0
	for i := range series {
		if src.ok {
			// Poison what the mask or the sign excludes.
			src.pred.Ms[tasks.IndexOf(tasks.NameDetect)] = -3
			if src.pred.Mask&(1<<uint(tasks.IndexOf(tasks.NameRDGROI))) == 0 {
				src.pred.Ms[tasks.IndexOf(tasks.NameRDGROI)] = 99
			}
			want := oracle.planSteered(&src.pred)
			checkDecision(t, "frame "+strconv.Itoa(i), m.Plan(), want)
			steered++
		}
		m.Observe(series[i])
		src.observe(&series[i])
	}
	if steered < 400 {
		t.Fatalf("only %d steered plans compared", steered)
	}
}

// TestPlanDeterministic: two managers fed the same observation series return
// bit-identical decision sequences. With est/demand summed in map iteration
// order the last bits of PredictedMs differed from run to run.
func TestPlanDeterministic(t *testing.T) {
	trained, series := planTestData(t)
	run := func() []Decision {
		m := cloneManager(t, trained)
		m.Sticky = true
		m.BudgetMs = 0.6 * meanSerialMs(series)
		out := make([]Decision, 0, len(series))
		for _, obs := range series {
			out = append(out, m.Plan())
			m.Observe(obs)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if math.Float64bits(a[i].PredictedMs) != math.Float64bits(b[i].PredictedMs) ||
			math.Float64bits(a[i].SerialMs) != math.Float64bits(b[i].SerialMs) ||
			a[i].Repartition != b[i].Repartition || !sameMapping(a[i].Mapping, b[i].Mapping) {
			t.Fatalf("frame %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

// TestPlanAllocatesOnlyToRepartition: a plan that keeps or re-derives the
// previous mapping, and the demand signal beside it, allocate nothing; a
// Mapping is built only when the plan changes it.
func TestPlanAllocatesOnlyToRepartition(t *testing.T) {
	trained, series := planTestData(t)
	for _, sticky := range []bool{true, false} {
		m := cloneManager(t, trained)
		m.Sticky = sticky
		m.BudgetMs = 0.6 * meanSerialMs(series)
		for _, obs := range series[:40] {
			m.Plan()
			m.Observe(obs)
		}
		m.Plan()
		var sink float64
		allocs := testing.AllocsPerRun(100, func() {
			dec := m.Plan()
			if dec.Repartition {
				t.Fatal("an unchanged forecast repartitioned")
			}
			sink += dec.PredictedMs + m.PredictedDemandMs()
		})
		if allocs != 0 {
			t.Fatalf("sticky=%v: steady Plan+PredictedDemandMs allocates %v, want 0", sticky, allocs)
		}
	}
	// Profiling mode hands the same serial mapping out again.
	m := cloneManager(t, trained)
	m.Plan()
	if allocs := testing.AllocsPerRun(100, func() { m.Plan() }); allocs != 0 {
		t.Fatalf("budget-less Plan allocates %v, want 0", allocs)
	}
}

func BenchmarkPlan(b *testing.B) {
	trained, series := planTestData(b)
	m := cloneManager(b, trained)
	m.Sticky = true
	m.BudgetMs = 0.6 * meanSerialMs(series)
	for _, obs := range series[:40] {
		m.Plan()
		m.Observe(obs)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Plan()
	}
}
