package sched

import (
	"testing"

	"triplec/internal/core"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

func synthSeq(t testing.TB, seed uint64) *synth.Sequence {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	cfg.Width, cfg.Height = 128, 128
	cfg.MarkerSpacing = 36
	cfg.NoiseSigma = 250
	cfg.QuantumGain = 0
	cfg.ClutterRate = 3
	cfg.DropoutEvery = 23
	s, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func newEngine(t testing.TB) *pipeline.Engine {
	t.Helper()
	e, err := pipeline.New(pipeline.Config{
		Width: 128, Height: 128, MarkerSpacing: 36, Arch: platform.Blackford(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func trainedPredictor(t testing.TB) *core.Predictor {
	t.Helper()
	var sets [][]core.Observation
	for i := 0; i < 4; i++ {
		seq := synthSeq(t, 5000+uint64(i)*31)
		eng := newEngine(t)
		reports, err := eng.RunSequence(60, func(j int) *frame.Frame {
			f, _ := seq.Frame(j)
			return f
		}, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		sets = append(sets, core.FromReports(reports, 128*128))
	}
	p, err := core.Train(sets, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	p.ResetOnline()
	return p
}

func TestNewManagerValidation(t *testing.T) {
	if _, err := NewManager(nil, platform.Blackford()); err == nil {
		t.Fatal("nil predictor accepted")
	}
	bad := platform.Blackford()
	bad.NumCPUs = 0
	if _, err := NewManager(trainedPredictor(t), bad); err == nil {
		t.Fatal("invalid arch accepted")
	}
}

func TestInitBudget(t *testing.T) {
	m, err := NewManager(trainedPredictor(t), platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	m.InitBudget(100)
	if m.BudgetMs != 85 {
		t.Fatalf("budget = %v, want 85 (close to average case)", m.BudgetMs)
	}
}

func TestPlanWithoutBudgetIsSerial(t *testing.T) {
	m, err := NewManager(trainedPredictor(t), platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	dec := m.Plan()
	if dec.Mapping.String() != "serial" {
		t.Fatalf("budget-less plan = %v, want serial", dec.Mapping)
	}
}

func TestPlanStripesWhenOverBudget(t *testing.T) {
	p := trainedPredictor(t)
	m, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	// Tiny budget forces maximal parallelization of the worst-case
	// cold-start prediction (RDG FULL dominates).
	m.BudgetMs = 5
	dec := m.Plan()
	if dec.Mapping.StripesFor(tasks.NameRDGFull) < 2 {
		t.Fatalf("over-budget plan did not stripe RDG FULL: %v", dec.Mapping)
	}
	if err := dec.Mapping.Validate(8); err != nil {
		t.Fatalf("planned mapping invalid: %v", err)
	}
	if dec.PredictedMs >= dec.SerialMs {
		t.Fatal("striped prediction must be below serial prediction")
	}
}

func TestPlanStaysSerialUnderGenerousBudget(t *testing.T) {
	p := trainedPredictor(t)
	m, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	m.BudgetMs = 10000
	dec := m.Plan()
	if dec.Mapping.String() != "serial" {
		t.Fatalf("under-budget plan must stay serial, got %v", dec.Mapping)
	}
}

func TestEstStripedMsMonotone(t *testing.T) {
	m, err := NewManager(trainedPredictor(t), platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	prev := m.estStripedMs(40, 1)
	for _, k := range []int{2, 4, 8} {
		cur := m.estStripedMs(40, k)
		if cur >= prev {
			t.Fatalf("striping to %d did not reduce the estimate (%v -> %v)", k, prev, cur)
		}
		prev = cur
	}
	if m.estStripedMs(40, 1) != 40 {
		t.Fatal("k=1 must be identity")
	}
}

func TestRunManagedValidation(t *testing.T) {
	m, _ := NewManager(trainedPredictor(t), platform.Blackford())
	if _, err := RunManaged(nil, m, 5, nil, 1); err == nil {
		t.Fatal("nil engine accepted")
	}
	if _, err := RunManaged(newEngine(t), nil, 5, nil, 1); err == nil {
		t.Fatal("nil manager accepted")
	}
	if _, err := RunManaged(newEngine(t), m, 0, nil, 1); err == nil {
		t.Fatal("zero frames accepted")
	}
}

// TestFig7Shape reproduces the paper's headline comparison: the
// semi-automatic parallel run must cut the worst-vs-average latency gap and
// the jitter substantially relative to the straightforward mapping.
func TestFig7Shape(t *testing.T) {
	const frames = 120
	seq := synthSeq(t, 424242)
	source := func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}

	straightEng := newEngine(t)
	_, straight, err := RunStraightforward(straightEng, frames, source)
	if err != nil {
		t.Fatal(err)
	}

	p := trainedPredictor(t)
	mgr, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	managedEng := newEngine(t)
	managed, err := RunManaged(managedEng, mgr, frames, source, 128*128)
	if err != nil {
		t.Fatal(err)
	}

	cmp, err := Summarize(straight, managed)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("straight worst/avg=%.2f managed worst/avg=%.2f jitter reduction=%.2f overruns=%.2f budget=%.1f",
		cmp.StraightWorstVsAvg, cmp.ManagedWorstVsAvg, cmp.JitterReduction, cmp.OverrunRate, cmp.BudgetMs)

	if cmp.StraightWorstVsAvg < 0.4 {
		t.Fatalf("straightforward gap %.2f unexpectedly small (paper: ~85%%)", cmp.StraightWorstVsAvg)
	}
	if cmp.ManagedWorstVsAvg > cmp.StraightWorstVsAvg/2 {
		t.Fatalf("managed gap %.2f not clearly below straightforward %.2f",
			cmp.ManagedWorstVsAvg, cmp.StraightWorstVsAvg)
	}
	if cmp.JitterReduction < 0.5 {
		t.Fatalf("jitter reduction %.2f below 50%% (paper: ~70%%)", cmp.JitterReduction)
	}
	if cmp.OverrunRate > 0.25 {
		t.Fatalf("too many budget overruns: %.2f", cmp.OverrunRate)
	}
	if cmp.BudgetMs <= 0 {
		t.Fatal("budget was never initialized")
	}
}

func TestManagedMappingsValidate(t *testing.T) {
	seq := synthSeq(t, 31415)
	p := trainedPredictor(t)
	mgr, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunManaged(newEngine(t), mgr, 40, func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}, 128*128)
	if err != nil {
		t.Fatal(err)
	}
	for i, dec := range res.Decisions {
		if err := dec.Mapping.Validate(8); err != nil {
			t.Fatalf("frame %d mapping invalid: %v", i, err)
		}
	}
	if len(res.Output) != 40 || len(res.Processing) != 40 {
		t.Fatal("series lengths wrong")
	}
}

func TestRepartitionFlag(t *testing.T) {
	p := trainedPredictor(t)
	m, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	m.BudgetMs = 5
	first := m.Plan()
	if !first.Repartition {
		t.Fatal("first non-serial plan must flag a repartition")
	}
	second := m.Plan()
	if second.Repartition {
		t.Fatal("identical consecutive plans must not flag a repartition")
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil, Result{Output: []float64{1}}); err == nil {
		t.Fatal("empty straight series accepted")
	}
}

func TestSpeedupPositive(t *testing.T) {
	c := CompareFig7{}
	res := Result{Output: []float64{40, 42}}
	if got := c.Speedup([]float64{80, 120}, res); got <= 1 {
		t.Fatalf("speedup = %v, want > 1", got)
	}
	if c.Speedup(nil, res) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestRunStraightforwardSerialOnly(t *testing.T) {
	seq := synthSeq(t, 999)
	reports, lats, err := RunStraightforward(newEngine(t), 10, func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(reports) != 10 || len(lats) != 10 {
		t.Fatal("lengths wrong")
	}
	for _, r := range reports {
		for _, e := range r.Execs {
			if e.Stripes != 1 {
				t.Fatalf("straightforward run striped %s", e.Task)
			}
		}
	}
	_ = partition.Serial()
}

func TestStickyReducesRepartitions(t *testing.T) {
	seq := synthSeq(t, 606060)
	src := func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}
	countRepartitions := func(sticky bool) (int, float64) {
		p := trainedPredictor(t)
		mgr, err := NewManager(p, platform.Blackford())
		if err != nil {
			t.Fatal(err)
		}
		mgr.Sticky = sticky
		res, err := RunManaged(newEngine(t), mgr, 80, src, 128*128)
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for _, d := range res.Decisions {
			if d.Repartition {
				n++
			}
		}
		gap, err := Summarize(res.Processing, res)
		if err != nil {
			t.Fatal(err)
		}
		return n, gap.ManagedWorstVsAvg
	}
	churny, _ := countRepartitions(false)
	sticky, stickyGap := countRepartitions(true)
	if sticky > churny {
		t.Fatalf("sticky planning repartitioned more: %d vs %d", sticky, churny)
	}
	if stickyGap > 0.5 {
		t.Fatalf("sticky planning lost latency stability: gap %.2f", stickyGap)
	}
}
