package shadow

import (
	"math"
	"sort"
	"testing"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
)

// stubBackend predicts a fixed scenario and total, for exact-arithmetic
// board tests.
type stubBackend struct {
	name     string
	scenario flowgraph.Scenario
	totalMs  float64
}

func (s *stubBackend) Name() string { return s.name }

func (s *stubBackend) Observe(*core.Observation) {}

func (s *stubBackend) Predict(dst *core.Prediction) {
	*dst = core.Prediction{Scenario: s.scenario, TotalMs: s.totalMs}
}

func (s *stubBackend) Reset() {}

func frameWith(s flowgraph.Scenario, totalMs float64) core.Observation {
	return core.Observation{Scenario: s, TotalMs: totalMs, FramePixels: 100}
}

// TestBoardScoring checks hit/miss accounting, error cells and regret with
// hand-computable stub backends. The first backend is the regret reference.
func TestBoardScoring(t *testing.T) {
	sc := flowgraph.WorstCase()
	other := sc
	other.RDGOn = !other.RDGOn
	exact := &stubBackend{name: core.BackendBaseline, scenario: sc, totalMs: 10}
	off := &stubBackend{name: "off-by-half", scenario: other, totalMs: 15}
	b, err := NewBoard("unit", []core.Backend{exact, off})
	if err != nil {
		t.Fatal(err)
	}

	// Frame 1 primes the forecasts; frames 2..4 are scored against them.
	obs := frameWith(sc, 10)
	for i := 0; i < 4; i++ {
		b.ObserveFrame(&obs)
	}

	snap := b.Snapshot()
	if snap.FramesObserved != 4 || snap.FramesScored != 3 {
		t.Fatalf("observed/scored = %d/%d, want 4/3", snap.FramesObserved, snap.FramesScored)
	}
	if snap.Deployed != core.BackendBaseline {
		t.Fatalf("deployed = %q", snap.Deployed)
	}
	base, alt := snap.Backends[0], snap.Backends[1]
	if base.ScenarioHits != 3 || base.ScenarioMisses != 0 {
		t.Fatalf("baseline hits/misses = %d/%d, want 3/0", base.ScenarioHits, base.ScenarioMisses)
	}
	if alt.ScenarioHits != 0 || alt.ScenarioMisses != 3 {
		t.Fatalf("alt hits/misses = %d/%d, want 0/3", alt.ScenarioHits, alt.ScenarioMisses)
	}
	if base.Total.Count != 3 || base.Total.MeanAbsRel != 0 || base.Accuracy() != 1 {
		t.Fatalf("baseline total stats: %+v", base.Total)
	}
	if alt.Total.MeanAbsRel != 0.5 || alt.Total.MeanSignedRel != 0.5 {
		t.Fatalf("alt rel err: %+v", alt.Total)
	}
	if alt.Accuracy() != 0 {
		t.Fatalf("alt accuracy = %v, want 0 (all samples outside 25%%)", alt.Accuracy())
	}
	// Regret: alt is 5 ms worse than the exact baseline per scored frame.
	if base.RegretMs != 0 || alt.RegretMs != 15 {
		t.Fatalf("regret = %v/%v, want 0/15", base.RegretMs, alt.RegretMs)
	}
}

// TestBoardDegenerateActuals: an actual of ~0 must not record NaN/Inf — the
// sample is dropped and counted.
func TestBoardDegenerateActuals(t *testing.T) {
	sc := flowgraph.WorstCase()
	a := &stubBackend{name: core.BackendBaseline, scenario: sc, totalMs: 5}
	bk := &stubBackend{name: "b", scenario: sc, totalMs: 5}
	b, err := NewBoard("unit", []core.Backend{a, bk})
	if err != nil {
		t.Fatal(err)
	}
	prime := frameWith(sc, 5)
	b.ObserveFrame(&prime)
	zero := frameWith(sc, 0)
	b.ObserveFrame(&zero)

	snap := b.Snapshot()
	for _, bs := range snap.Backends {
		if bs.Degenerate == 0 {
			t.Fatalf("backend %s did not count the degenerate sample", bs.Name)
		}
		if bs.Total.Count != 0 {
			t.Fatalf("backend %s recorded a rel error against actual 0", bs.Name)
		}
		if math.IsNaN(bs.Total.MeanAbsRel) || math.IsInf(bs.Total.MeanAbsRel, 0) {
			t.Fatalf("backend %s stats went non-finite: %+v", bs.Name, bs.Total)
		}
	}
}

// TestBoardWarmupAndReset: warmup forecasts after a reset go unscored.
func TestBoardWarmupAndReset(t *testing.T) {
	sc := flowgraph.WorstCase()
	a := &stubBackend{name: core.BackendBaseline, scenario: sc, totalMs: 10}
	bk := &stubBackend{name: "b", scenario: sc, totalMs: 10}
	b, err := NewBoard("unit", []core.Backend{a, bk})
	if err != nil {
		t.Fatal(err)
	}
	b.SetWarmup(2)
	obs := frameWith(sc, 10)
	for i := 0; i < 5; i++ {
		b.ObserveFrame(&obs)
	}
	// 5 observed: 1 primes, 2 warm up, 2 scored.
	if snap := b.Snapshot(); snap.FramesScored != 2 {
		t.Fatalf("scored = %d, want 2", snap.FramesScored)
	}
	b.ResetSequence()
	for i := 0; i < 4; i++ {
		b.ObserveFrame(&obs)
	}
	if snap := b.Snapshot(); snap.FramesScored != 3 {
		t.Fatalf("scored after reset = %d, want 3", snap.FramesScored)
	}
}

// TestP2Quantile checks the streaming estimator against the exact quantile
// of a deterministic, shuffled-ish ramp.
func TestP2Quantile(t *testing.T) {
	var q p2Quantile
	q.init(0.9)
	n := 500
	vals := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		v := float64((i*7919)%n) / 10 // deterministic permutation of 0..49.9
		vals = append(vals, v)
		q.add(v)
	}
	sort.Float64s(vals)
	exact := vals[int(0.9*float64(n))]
	got := q.value()
	if math.Abs(got-exact) > 0.05*exact+1 {
		t.Fatalf("P90 estimate %v too far from exact %v", got, exact)
	}
	if !q.primed() {
		t.Fatal("estimator not primed after 500 samples")
	}
}
