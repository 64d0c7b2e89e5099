package sched

import (
	"math"
	"testing"
	"testing/quick"
)

func TestOutputLatency(t *testing.T) {
	r := Regulator{BudgetMs: 40}
	if r.OutputLatency(30) != 40 {
		t.Fatal("early frame must be delayed to the budget")
	}
	if r.OutputLatency(55) != 55 {
		t.Fatal("overrunning frame must pass through")
	}
	if r.OutputLatency(40) != 40 {
		t.Fatal("exact frame must match budget")
	}
}

func TestDelayMs(t *testing.T) {
	r := Regulator{BudgetMs: 40}
	if r.DelayMs(30) != 10 {
		t.Fatal("delay wrong")
	}
	if r.DelayMs(45) != 0 {
		t.Fatal("overrun must have zero delay")
	}
}

func TestOverrun(t *testing.T) {
	r := Regulator{BudgetMs: 40}
	if r.Overrun(30) != 0 {
		t.Fatal("met budget must have zero overrun")
	}
	if r.Overrun(47) != 7 {
		t.Fatal("overrun wrong")
	}
}

func TestRegulate(t *testing.T) {
	r := Regulator{BudgetMs: 10}
	out := r.Regulate([]float64{5, 10, 15})
	want := []float64{10, 10, 15}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("Regulate = %v, want %v", out, want)
		}
	}
}

func TestOverrunRate(t *testing.T) {
	r := Regulator{BudgetMs: 10}
	if got := r.OverrunRate([]float64{5, 11, 9, 20}); got != 0.5 {
		t.Fatalf("OverrunRate = %v, want 0.5", got)
	}
	if r.OverrunRate(nil) != 0 {
		t.Fatal("empty series rate must be 0")
	}
}

func TestJitterReduction(t *testing.T) {
	before := []float64{60, 120, 60, 120} // std 30
	after := []float64{85, 95, 85, 95}    // std 5
	got, err := JitterReduction(before, after)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-(1-5.0/30)) > 1e-12 {
		t.Fatalf("JitterReduction = %v", got)
	}
}

func TestJitterReductionErrors(t *testing.T) {
	if _, err := JitterReduction(nil, []float64{1}); err == nil {
		t.Fatal("empty before accepted")
	}
	if _, err := JitterReduction([]float64{1}, nil); err == nil {
		t.Fatal("empty after accepted")
	}
	if _, err := JitterReduction([]float64{5, 5}, []float64{1, 2}); err == nil {
		t.Fatal("zero-jitter reference accepted")
	}
}

func TestWorstVsAverage(t *testing.T) {
	got, err := WorstVsAverage([]float64{80, 100, 100, 120})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.2) > 1e-12 {
		t.Fatalf("WorstVsAverage = %v, want 0.2", got)
	}
	if _, err := WorstVsAverage(nil); err == nil {
		t.Fatal("empty series accepted")
	}
}

// Property: the regulator's output is never below the budget and never
// below the processing time.
func TestPropertyRegulatorBounds(t *testing.T) {
	f := func(pRaw uint16, bRaw uint16) bool {
		p := float64(pRaw) / 10
		b := float64(bRaw) / 10
		r := Regulator{BudgetMs: b}
		out := r.OutputLatency(p)
		return out >= b && out >= p && math.Abs(out-(p+r.DelayMs(p))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestProfileOf(t *testing.T) {
	series := make([]float64, 100)
	for i := range series {
		series[i] = float64(i + 1) // 1..100
	}
	p, err := ProfileOf(series)
	if err != nil {
		t.Fatal(err)
	}
	if p.Max != 100 {
		t.Fatalf("profile basics wrong: %+v", p)
	}
	if math.Abs(p.Mean-50.5) > 1e-9 {
		t.Fatalf("mean = %v", p.Mean)
	}
	if p.P50 < 49 || p.P50 > 52 {
		t.Fatalf("P50 = %v", p.P50)
	}
	if p.P99 < 98 || p.P99 > 100 {
		t.Fatalf("P99 = %v", p.P99)
	}
	if !(p.P50 <= p.P90 && p.P90 <= p.P95 && p.P95 <= p.P99 && p.P99 <= p.Max) {
		t.Fatalf("percentiles not ordered: %+v", p)
	}
	if _, err := ProfileOf(nil); err == nil {
		t.Fatal("empty series accepted")
	}
}
