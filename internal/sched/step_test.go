package sched

import (
	"reflect"
	"testing"

	"triplec/internal/core"
	"triplec/internal/frame"
	"triplec/internal/platform"
)

// TestStepFirstFrame: the initialization frame runs the serial mapping
// without planning and sets the budget from its latency — but only when no
// budget was configured; later frames plan.
func TestStepFirstFrame(t *testing.T) {
	seq := synthSeq(t, 2468)
	src := func(i int) *frame.Frame { f, _ := seq.Frame(i); return f }
	base := trainedPredictor(t)
	for _, fixed := range []float64{0, 33} {
		p, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := NewManager(p, platform.Blackford())
		if err != nil {
			t.Fatal(err)
		}
		mgr.BudgetMs = fixed
		eng := newEngine(t)
		var obs core.Observation
		dec, rep, err := mgr.Step(eng, src(0), true, 128*128, &obs)
		if err != nil {
			t.Fatal(err)
		}
		if len(dec.Mapping) != 0 || dec.PredictedMs != 0 || dec.Repartition {
			t.Fatalf("budget %v: first frame was planned: %+v", fixed, dec)
		}
		want := fixed
		if fixed == 0 {
			want = rep.LatencyMs * 0.85 // InitBudget's rule
		}
		if mgr.BudgetMs != want {
			t.Fatalf("budget %v: after the first frame the budget is %v, want %v", fixed, mgr.BudgetMs, want)
		}
		var fromReport core.Observation
		core.DenseFromReport(&rep, 128*128, &fromReport)
		if !reflect.DeepEqual(obs, fromReport) || obs.Mask == 0 {
			t.Fatalf("budget %v: step observation %+v, report's %+v", fixed, obs, fromReport)
		}
		if _, ok := p.LastScenario(); !ok {
			t.Fatalf("budget %v: the first frame was not fed back to the predictor", fixed)
		}
		dec, _, err = mgr.Step(eng, src(1), false, 128*128, &obs)
		if err != nil {
			t.Fatal(err)
		}
		if dec.SerialMs <= 0 || dec.PredictedMs <= 0 {
			t.Fatalf("budget %v: second frame was not planned: %+v", fixed, dec)
		}
		if mgr.BudgetMs != want {
			t.Fatalf("budget %v: a later frame moved the budget to %v", fixed, mgr.BudgetMs)
		}
	}
}

// TestObserveMatchesObserveFrame: Manager.Observe is the predictor's
// Observe plus the budget controller fed the frame's LatencyMs. A manager
// and, beside it, a bare clone of its predictor and a standalone
// BudgetController are fed the same 300-frame series — with every latency
// set below its task sum, as a mapping that overlaps tasks would report —
// and must forecast and budget identically at every step.
func TestObserveMatchesObserveFrame(t *testing.T) {
	seq := synthSeq(t, 1357)
	reports, err := newEngine(t).RunSequence(300, func(i int) *frame.Frame { f, _ := seq.Frame(i); return f }, nil)
	if err != nil {
		t.Fatal(err)
	}
	series := core.FromReports(reports, 128*128)
	base := trainedPredictor(t)
	p, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := NewManager(p, platform.Blackford())
	if err != nil {
		t.Fatal(err)
	}
	mgr.Budgeter = NewBudgetController()
	mgr.BudgetMs = 30
	ref, err := base.Clone()
	if err != nil {
		t.Fatal(err)
	}
	refBudgeter, refBudget := NewBudgetController(), 30.0
	budgetMoved := false
	for i := range series {
		obs := series[i]
		obs.LatencyMs = 0.8 * obs.TotalMs
		mgr.Observe(obs)
		ref.Observe(obs)
		if b, err := refBudgeter.Observe(refBudget, obs.LatencyMs); err == nil {
			refBudget = b
		}
		if a, b := mgr.Predictor().PredictNext(), ref.PredictNext(); a != b {
			t.Fatalf("frame %d: forecasts diverge: %+v vs %+v", i, a, b)
		}
		if mgr.BudgetMs != refBudget {
			t.Fatalf("frame %d: budget %v, want %v from the frame latencies", i, mgr.BudgetMs, refBudget)
		}
		budgetMoved = budgetMoved || mgr.BudgetMs != 30
	}
	if !budgetMoved {
		t.Fatal("the budgeter never moved the budget; the latency argument went untested")
	}
}
