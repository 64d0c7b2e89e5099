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
		var obs core.FrameObs
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
		var fromReport core.FrameObs
		core.DenseFromReport(&rep, 128*128, &fromReport)
		if obs != fromReport || obs.Mask == 0 {
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

// TestObserveMatchesObserveFrame: Manager.Observe is Dense + ObserveFrame.
// Two managers on clones of one predictor, adaptive budget on, are fed the
// same 300-frame series — one the map observations, the other their dense
// form plus the latency — and must forecast and budget identically at every
// step.
func TestObserveMatchesObserveFrame(t *testing.T) {
	seq := synthSeq(t, 1357)
	reports, err := newEngine(t).RunSequence(300, func(i int) *frame.Frame { f, _ := seq.Frame(i); return f }, nil)
	if err != nil {
		t.Fatal(err)
	}
	series := core.FromReports(reports, 128*128)
	base := trainedPredictor(t)
	var mgrs [2]*Manager
	for i := range mgrs {
		p, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		if mgrs[i], err = NewManager(p, platform.Blackford()); err != nil {
			t.Fatal(err)
		}
		mgrs[i].Budgeter = NewBudgetController()
		mgrs[i].BudgetMs = 30
	}
	budgetMoved := false
	for i := range series {
		mgrs[0].Observe(series[i])
		var dense core.FrameObs
		series[i].Dense(&dense)
		mgrs[1].ObserveFrame(&dense, series[i].TotalMs)
		a, b := mgrs[0].Predictor().PredictNext(), mgrs[1].Predictor().PredictNext()
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("frame %d: forecasts diverge: %+v vs %+v", i, a, b)
		}
		if mgrs[0].BudgetMs != mgrs[1].BudgetMs {
			t.Fatalf("frame %d: budgets diverge: %v vs %v", i, mgrs[0].BudgetMs, mgrs[1].BudgetMs)
		}
		budgetMoved = budgetMoved || mgrs[0].BudgetMs != 30
	}
	if !budgetMoved {
		t.Fatal("the budgeter never moved the budget; the latency argument went untested")
	}
}
