package core

import (
	"math"
	"math/bits"
	"reflect"
	"strings"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

// profile runs the pipeline over a synthetic sequence with the serial
// mapping (the profiling configuration) and returns its reports.
func profile(t *testing.T, seed uint64, frames int) []pipeline.Report {
	t.Helper()
	scfg := synth.DefaultConfig(seed)
	scfg.Width, scfg.Height = 128, 128
	scfg.MarkerSpacing = 36
	scfg.NoiseSigma = 250
	scfg.QuantumGain = 0
	scfg.ClutterRate = 3
	scfg.DropoutEvery = 23
	seq, err := synth.New(scfg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := pipeline.New(pipeline.Config{
		Width: 128, Height: 128, MarkerSpacing: 36, Arch: platform.Blackford(),
	})
	if err != nil {
		t.Fatal(err)
	}
	reports, err := eng.RunSequence(frames, func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// observe is profile as the observation stream.
func observe(t *testing.T, seed uint64, frames int) []Observation {
	t.Helper()
	return FromReports(profile(t, seed, frames), 128*128)
}

// trainSets returns n observation sequences with distinct seeds.
func trainSets(t *testing.T, n, frames int) [][]Observation {
	t.Helper()
	out := make([][]Observation, n)
	for i := range out {
		out[i] = observe(t, 1000+uint64(i)*17, frames)
	}
	return out
}

func TestTrainValidation(t *testing.T) {
	if _, err := Train(nil, TrainConfig{}); err == nil {
		t.Fatal("no sequences accepted")
	}
}

func TestTrainBuildsTable2bModels(t *testing.T) {
	p, err := Train(trainSets(t, 4, 60), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	expect := map[tasks.Name]string{
		tasks.NameRDGFull: "<Eq. 1> + Markov RDG",
		tasks.NameRDGROI:  "<Eq. 3> + Markov RDG",
		tasks.NameCPLSSel: "<Eq. 1> + Markov CPLS",
		tasks.NameGWExt:   "<Eq. 1> + Markov GW",
	}
	for task, want := range expect {
		m := p.Models[tasks.IndexOf(task)]
		if m == nil {
			t.Fatalf("no model for %s", task)
		}
		if m.Describe() != want {
			t.Fatalf("%s model = %q, want %q", task, m.Describe(), want)
		}
	}
	// Constant tasks.
	for _, task := range []tasks.Name{tasks.NameMKXExt, tasks.NameREG, tasks.NameROIEst, tasks.NameENH, tasks.NameZOOM} {
		m := p.Models[tasks.IndexOf(task)]
		if m == nil {
			t.Fatalf("no model for %s", task)
		}
		if _, isConst := m.(*ConstantModel); !isConst {
			t.Fatalf("%s must be a constant model, got %T", task, m)
		}
	}
}

func TestRDGVariantsShareChain(t *testing.T) {
	p, err := Train(trainSets(t, 4, 60), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	full := p.Models[tasks.IndexOf(tasks.NameRDGFull)].(*EWMAMarkovModel)
	roi := p.Models[tasks.IndexOf(tasks.NameRDGROI)].(*LinearMarkovModel)
	if full.Chain() != roi.chain {
		t.Fatal("RDG FULL and RDG ROI must share a single Markov chain (paper §4)")
	}
}

func TestConstantModelsNearTable2b(t *testing.T) {
	p, err := Train(trainSets(t, 4, 60), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	// The calibrated cost model must land the constants near the paper's
	// values (generous bands; exact values depend on task configuration).
	checks := []struct {
		task   tasks.Name
		lo, hi float64
	}{
		{tasks.NameREG, 0.5, 5},
		{tasks.NameROIEst, 0.05, 3},
		{tasks.NameMKXExt, 0.8, 6},
		{tasks.NameENH, 5, 40},
		{tasks.NameZOOM, 5, 25},
	}
	for _, c := range checks {
		ms := p.Models[tasks.IndexOf(c.task)].(*ConstantModel).Ms
		if ms < c.lo || ms > c.hi {
			t.Fatalf("%s constant = %.2f ms, want within [%v, %v]", c.task, ms, c.lo, c.hi)
		}
	}
}

func TestScenarioTable(t *testing.T) {
	tab := NewScenarioTable()
	a, b := flowgraph.FromIndex(4), flowgraph.FromIndex(5)
	// Unseen row: predict self.
	if tab.MostLikelyNext(a) != a {
		t.Fatal("unseen row must predict self-transition")
	}
	if tab.Table.P(a.Index(), a.Index()) != 1 || tab.Table.P(a.Index(), b.Index()) != 0 {
		t.Fatal("unseen row probabilities wrong")
	}
	tab.Add(a, b)
	tab.Add(a, b)
	tab.Add(a, a)
	if got := tab.Table.P(a.Index(), b.Index()); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("P = %v, want 2/3", got)
	}
	if tab.MostLikelyNext(a) != b {
		t.Fatal("most likely successor wrong")
	}
}

func TestPredictNextBeforeObservation(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.ResetOnline()
	pred := p.PredictNext()
	if pred.Scenario != flowgraph.WorstCase() {
		t.Fatalf("cold prediction must assume the worst case, got %v", pred.Scenario)
	}
	if pred.TotalMs <= 0 {
		t.Fatal("cold prediction must still produce a positive total")
	}
}

func TestObservePredictCycle(t *testing.T) {
	seqs := trainSets(t, 3, 50)
	p, err := Train(seqs, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	test := observe(t, 4242, 50)
	p.ResetOnline()
	for i, obs := range test {
		pred := p.PredictNext()
		if pred.TotalMs < 0 {
			t.Fatalf("frame %d: negative prediction", i)
		}
		p.Observe(obs)
	}
}

// TestHeadlineAccuracy reproduces the paper's §7 claim shape: high average
// prediction accuracy (the paper reports 97%) with bounded sporadic
// excursions (20-30% in the paper). We require >= 85% average accuracy and
// excursions below 80% on held-out sequences.
func TestHeadlineAccuracy(t *testing.T) {
	p, err := Train(trainSets(t, 6, 80), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	testSeqs := [][]Observation{
		observe(t, 999983, 80),
		observe(t, 777777, 80),
	}
	acc, err := p.Evaluate(testSeqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if acc.Frames < 100 {
		t.Fatalf("evaluated only %d frames", acc.Frames)
	}
	if acc.Mean < 0.85 {
		t.Fatalf("mean accuracy %.3f below 0.85 (paper: 0.97)", acc.Mean)
	}
	if acc.WorstExcursion > 0.8 {
		t.Fatalf("worst excursion %.2f too large", acc.WorstExcursion)
	}
	if acc.ScenarioHits < 0.7 {
		t.Fatalf("scenario prediction rate %.2f too low", acc.ScenarioHits)
	}
}

func TestEvaluateValidation(t *testing.T) {
	p, err := Train(trainSets(t, 2, 40), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.Evaluate(nil, 1); err == nil {
		t.Fatal("empty evaluation accepted")
	}
}

func TestModelSummaryRendersTable2b(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s := p.ModelSummary()
	for _, want := range []string{"RDG_FULL", "<Eq. 1> + Markov RDG", "<Eq. 3> + Markov RDG", "CPLS", "GW"} {
		if !strings.Contains(s, want) {
			t.Fatalf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestRDGChainRendersTable2a(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if p.RDGChain() == nil {
		t.Fatal("no RDG chain")
	}
	out := p.RDGChain().Chain().Render()
	if !strings.Contains(out, "s0") {
		t.Fatalf("Table 2a render wrong:\n%s", out)
	}
	if p.RDGChain().Chain().States() < 2 {
		t.Fatal("RDG chain must have at least 2 states")
	}
}

func TestPredictResourcesThreeCs(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.ResetOnline()
	res, err := p.PredictResources(2048, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalMs <= 0 {
		t.Fatal("computation prediction missing")
	}
	if res.InterMBs <= 0 {
		t.Fatal("bandwidth prediction missing")
	}
	if len(res.MemoryKB) == 0 {
		t.Fatal("memory prediction missing")
	}
	// Worst-case scenario must include RDG FULL's 14,336 KB footprint.
	if res.MemoryKB[tasks.NameRDGFull] != 2048+7168+5120 {
		t.Fatalf("RDG FULL memory = %d KB", res.MemoryKB[tasks.NameRDGFull])
	}
}

func TestConstantModel(t *testing.T) {
	if _, err := NewConstantModel(nil); err == nil {
		t.Fatal("empty samples accepted")
	}
	m, err := NewConstantModel([]float64{2, 4})
	if err != nil {
		t.Fatal(err)
	}
	if m.Predict(Context{}) != 3 {
		t.Fatal("constant must be the mean")
	}
	m.Observe(Context{}, 100)
	if m.Predict(Context{}) != 3 {
		t.Fatal("constant model must ignore observations")
	}
}

func TestEWMAMarkovModelValidation(t *testing.T) {
	if _, err := NewEWMAMarkovModel(nil, 0.2, 10, "X"); err == nil {
		t.Fatal("no data accepted")
	}
	if _, err := NewEWMAMarkovModel([][]float64{{1, 2, 3}}, 0, 10, "X"); err == nil {
		t.Fatal("invalid alpha accepted")
	}
}

func TestEWMAMarkovModelTracksLevelShift(t *testing.T) {
	// Train on a two-level series; after observing a run at the high level,
	// the prediction must be near the high level, not the global mean.
	series := make([]float64, 200)
	for i := range series {
		if i < 100 {
			series[i] = 10
		} else {
			series[i] = 50
		}
	}
	m, err := NewEWMAMarkovModel([][]float64{series}, 0.3, 10, "X")
	if err != nil {
		t.Fatal(err)
	}
	m.ResetOnline()
	for i := 0; i < 30; i++ {
		m.Observe(Context{}, 50)
	}
	if pred := m.Predict(Context{}); math.Abs(pred-50) > 5 {
		t.Fatalf("prediction %v did not adapt to the 50-level", pred)
	}
}

func TestEWMAMarkovResetOnline(t *testing.T) {
	m, err := NewEWMAMarkovModel([][]float64{{5, 6, 7, 8, 9, 10}}, 0.3, 10, "X")
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(Context{}, 100)
	m.ResetOnline()
	cold := m.Predict(Context{})
	if math.Abs(cold-7.5) > 1e-9 { // trained mean fallback
		t.Fatalf("cold prediction = %v, want trained mean 7.5", cold)
	}
}

func TestLinearMarkovModelValidation(t *testing.T) {
	if _, err := NewLinearMarkovModel(ewmaGrowth(1, 0), nil, "X"); err == nil {
		t.Fatal("nil chain accepted")
	}
}

func TestLinearMarkovModelUsesROISize(t *testing.T) {
	m, err := NewEWMAMarkovModel([][]float64{{0, 1, -1, 0, 1, -1, 0}}, 0.3, 4, "RDG")
	if err != nil {
		t.Fatal(err)
	}
	lm, err := NewLinearMarkovModel(ewmaGrowth(0.001, 5), m.Chain(), "RDG")
	if err != nil {
		t.Fatal(err)
	}
	small := lm.Predict(Context{ROIPixels: 1000})
	large := lm.Predict(Context{ROIPixels: 100000})
	if large <= small {
		t.Fatal("prediction must grow with ROI size (Eq. 3)")
	}
}

func TestFromReportsCarriesFields(t *testing.T) {
	obs := observe(t, 31337, 20)
	if len(obs) != 20 {
		t.Fatalf("observations = %d", len(obs))
	}
	for i, o := range obs {
		if o.FramePixels != 128*128 {
			t.Fatalf("frame %d: FramePixels = %d", i, o.FramePixels)
		}
		if o.AnalysisPixels <= 0 {
			t.Fatalf("frame %d: AnalysisPixels missing", i)
		}
		if o.TotalMs <= 0 || o.LatencyMs <= 0 || o.Mask == 0 {
			t.Fatalf("frame %d: timing missing", i)
		}
	}
}

// TestFromReportsFields: every report field lands in its observation, one
// report's task entries never leak into the next observation, and the two
// totals stay apart. The first report is striped and states a latency below
// its task sum, as a mapping that overlaps tasks would: TotalMs must be
// Σ Execs[].Ms and LatencyMs the report's own latency.
func TestFromReportsFields(t *testing.T) {
	reports := []pipeline.Report{
		{
			Scenario: flowgraph.WorstCase(), AnalysisPixels: 4096, ROI: frame.R(3, 4, 13, 24), LatencyMs: 21.5,
			Execs: []pipeline.TaskExec{
				{Task: tasks.NameRDGFull, Ms: 20, Stripes: 2},
				{Task: tasks.NameMKXExt, Ms: 7, Stripes: 1},
				{Task: tasks.NameENH, Ms: 4.5, Stripes: 4},
			},
		},
		{
			Scenario: flowgraph.Scenario{ROIKnown: true}, AnalysisPixels: 200, LatencyMs: 2.5,
			Execs: []pipeline.TaskExec{{Task: tasks.NameMKXExt, Ms: 2.5, Stripes: 1}},
		},
	}
	want := []Observation{
		{Scenario: flowgraph.WorstCase(), AnalysisPixels: 4096, EstROIPixels: 200, FramePixels: 128 * 128, TotalMs: 31.5, LatencyMs: 21.5},
		{Scenario: flowgraph.Scenario{ROIKnown: true}, AnalysisPixels: 200, FramePixels: 128 * 128, TotalMs: 2.5, LatencyMs: 2.5},
	}
	for i := range reports {
		for _, e := range reports[i].Execs {
			ti := tasks.IndexOf(e.Task)
			want[i].Ms[ti] = e.Ms
			want[i].Mask |= 1 << uint(ti)
		}
	}
	got := FromReports(reports, 128*128)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("FromReports = %+v, want %+v", got, want)
	}
	striped := &got[0]
	sum := 0.0
	for _, e := range reports[0].Execs {
		sum += e.Ms
	}
	if striped.TotalMs != sum || striped.LatencyMs != reports[0].LatencyMs || striped.TotalMs == striped.LatencyMs {
		t.Fatalf("striped frame: TotalMs %v (Σ Execs %v), LatencyMs %v (report %v); the totals must differ",
			striped.TotalMs, sum, striped.LatencyMs, reports[0].LatencyMs)
	}
}

// TestDenseFromReportMatchesObservationDense: the serving commit path fills
// one observation straight from the report, and the training corpus comes
// from FromReports over the same reports; the two must agree bit for bit on
// real engine reports (every scenario the sequence visits). On the engine's
// own reports the stated latency is the task sum in execution order, which
// is task-index order, so TotalMs equals it exactly.
func TestDenseFromReportMatchesObservationDense(t *testing.T) {
	reports := profile(t, 3131, 120)
	scenarios := map[flowgraph.Scenario]bool{}
	for i, want := range FromReports(reports, 128*128) {
		var got Observation
		DenseFromReport(&reports[i], 128*128, &got)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("frame %d: DenseFromReport %+v, FromReports %+v", i, got, want)
		}
		if got.TotalMs != reports[i].LatencyMs || got.LatencyMs != reports[i].LatencyMs {
			t.Fatalf("frame %d: TotalMs %v, LatencyMs %v, report latency %v", i, got.TotalMs, got.LatencyMs, reports[i].LatencyMs)
		}
		scenarios[got.Scenario] = true
	}
	if len(scenarios) < 3 {
		t.Fatalf("only %d scenarios visited; the comparison would not cover the task sets", len(scenarios))
	}
}

// ewmaGrowth builds a LinearGrowth without the fitting path.
func ewmaGrowth(slope, intercept float64) LinearGrowth {
	return LinearGrowth{Slope: slope, Intercept: intercept}
}

func TestEvaluatePerTask(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := p.EvaluatePerTask([][]Observation{observe(t, 818181, 60)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(accs) < 5 {
		t.Fatalf("per-task accuracies for only %d tasks", len(accs))
	}
	byTask := map[tasks.Name]TaskAccuracy{}
	for _, a := range accs {
		if a.Samples <= 0 {
			t.Fatalf("%s: no samples", a.Task)
		}
		byTask[a.Task] = a
	}
	// Constant tasks must predict near-perfectly.
	for _, task := range []tasks.Name{tasks.NameREG, tasks.NameZOOM} {
		a, ok := byTask[task]
		if !ok {
			t.Fatalf("no accuracy for %s", task)
		}
		if a.Mean < 0.95 {
			t.Fatalf("%s accuracy %.3f, want >= 0.95 (constant model)", task, a.Mean)
		}
	}
	// The data-dependent RDG FULL must still be well predicted.
	if a, ok := byTask[tasks.NameRDGFull]; ok && a.Mean < 0.8 {
		t.Fatalf("RDG FULL accuracy %.3f too low", a.Mean)
	}
	if _, err := p.EvaluatePerTask(nil, 1); err == nil {
		t.Fatal("empty evaluation accepted")
	}
}

func TestCrossValidate(t *testing.T) {
	seqs := trainSets(t, 4, 50)
	cv, err := CrossValidate(seqs, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(cv.Folds) != 4 {
		t.Fatalf("folds = %d, want 4", len(cv.Folds))
	}
	if cv.MeanAcc < 0.8 {
		t.Fatalf("cross-validated mean accuracy %.3f too low", cv.MeanAcc)
	}
	if cv.WorstAcc > cv.MeanAcc {
		t.Fatal("worst fold cannot exceed the mean")
	}
	if cv.StdAcc < 0 {
		t.Fatal("negative std")
	}
}

func TestCrossValidateValidation(t *testing.T) {
	seqs := trainSets(t, 2, 30)
	if _, err := CrossValidate(seqs, 1, 1); err == nil {
		t.Fatal("k=1 accepted")
	}
	if _, err := CrossValidate(seqs, 5, 1); err == nil {
		t.Fatal("more folds than sequences accepted")
	}
}

func TestScenarioTableSuccessors(t *testing.T) {
	tab := NewScenarioTable()
	a := flowgraph.FromIndex(4)
	b := flowgraph.FromIndex(5)
	c := flowgraph.FromIndex(6)
	// Unseen row: self-transition only.
	succ := tab.Successors(a, 0.1)
	if len(succ) != 1 || succ[0] != a {
		t.Fatalf("unseen successors = %v", succ)
	}
	for i := 0; i < 8; i++ {
		tab.Add(a, b)
	}
	tab.Add(a, c)
	tab.Add(a, c)
	// P(b)=0.8, P(c)=0.2: both above 0.1, ordered descending.
	succ = tab.Successors(a, 0.1)
	if len(succ) != 2 || succ[0] != b || succ[1] != c {
		t.Fatalf("successors = %v, want [b c]", succ)
	}
	// Threshold filters the rare one.
	succ = tab.Successors(a, 0.5)
	if len(succ) != 1 || succ[0] != b {
		t.Fatalf("filtered successors = %v", succ)
	}
}

func TestPredictorContextAccessors(t *testing.T) {
	p, err := Train(trainSets(t, 2, 40), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.ResetOnline()
	if _, ok := p.LastScenario(); ok {
		t.Fatal("cold predictor must report no last scenario")
	}
	if ctx := p.NextContext(); ctx.ROIPixels != 0 {
		t.Fatalf("cold context = %+v", ctx)
	}
	obs := Observation{
		Scenario:     flowgraph.WorstCase(),
		EstROIPixels: 4000,
		FramePixels:  128 * 128,
	}
	p.Observe(obs)
	if s, ok := p.LastScenario(); !ok || s != flowgraph.WorstCase() {
		t.Fatalf("LastScenario = %v, %v", s, ok)
	}
	if ctx := p.NextContext(); ctx.ROIPixels != 4000 {
		t.Fatalf("context after ROI estimate = %+v", ctx)
	}
	obs.EstROIPixels = 0
	p.Observe(obs)
	if ctx := p.NextContext(); ctx.ROIPixels != 128*128 {
		t.Fatalf("context without ROI = %+v", ctx)
	}
}

func TestPredictTasksFor(t *testing.T) {
	p, err := Train(trainSets(t, 2, 40), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.ResetOnline()
	var full, best [tasks.NumNames]float64
	fullMask, _ := p.PredictTasksInto(TaskMask(flowgraph.WorstCase()), Context{ROIPixels: 128 * 128}, &full)
	if n := bits.OnesCount16(fullMask); n < 7 {
		t.Fatalf("worst case predicted only %d tasks", n)
	}
	bestMask, _ := p.PredictTasksInto(TaskMask(flowgraph.Scenario{ROIKnown: true}), Context{ROIPixels: 4000}, &best)
	if bits.OnesCount16(bestMask) >= bits.OnesCount16(fullMask) {
		t.Fatal("best case must predict fewer tasks")
	}
	for ti, ms := range full {
		if ms < 0 || (fullMask&(1<<uint(ti)) == 0 && ms != 0) {
			t.Fatalf("task %d predicted %v (mask %b)", ti, ms, fullMask)
		}
	}
}

func TestLinearMarkovGrowthAccessor(t *testing.T) {
	p, err := Train(trainSets(t, 2, 40), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	roi := p.Models[tasks.IndexOf(tasks.NameRDGROI)].(*LinearMarkovModel)
	if roi.Growth().Slope <= 0 {
		t.Fatalf("RDG ROI growth slope = %v, want positive", roi.Growth().Slope)
	}
}

func TestConstantModelObserveResetNoops(t *testing.T) {
	m, err := NewConstantModel([]float64{5})
	if err != nil {
		t.Fatal(err)
	}
	m.Observe(Context{}, 99)
	m.ResetOnline()
	if m.Predict(Context{}) != 5 {
		t.Fatal("constant model changed")
	}
}

func TestWorstCaseResetOnlineKeeps(t *testing.T) {
	m, err := NewWorstCaseModel([]float64{5, 9})
	if err != nil {
		t.Fatal(err)
	}
	m.ResetOnline()
	if m.Worst != 9 {
		t.Fatal("reservation lost on reset")
	}
}
