package core

import (
	"math/rand"
	"sort"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// trainTwoClones trains a predictor on a small profiled corpus and returns
// two independent clones plus a held-out test sequence.
func trainTwoClones(t *testing.T) (*Predictor, *Predictor, []Observation) {
	t.Helper()
	var train [][]Observation
	for i := uint64(0); i < 3; i++ {
		train = append(train, observe(t, 100+i*7, 25))
	}
	p, err := Train(train, TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	b, err := p.Clone()
	if err != nil {
		t.Fatal(err)
	}
	return a, b, observe(t, 999, 30)
}

// TestBaselineBackendMatchesPredictNext drives a cloned predictor through
// its own Observe/PredictNext loop and its twin through BaselineBackend,
// asserting the forecasts are identical at every frame, and holds each
// forecast to the models asked directly, summed in pipeline order.
func TestBaselineBackendMatchesPredictNext(t *testing.T) {
	ref, cloned, test := trainTwoClones(t)
	backend := NewBaselineBackend(cloned)

	var got Prediction
	for i := range test {
		// Forecast parity before observing frame i (covers the pre-first-
		// observation worst-case path at i == 0).
		want := ref.PredictNext()
		backend.Predict(&got)
		if got != want {
			t.Fatalf("frame %d: backend forecast %+v, want %+v", i, got, want)
		}
		if want.Mask == 0 {
			t.Fatalf("frame %d: reference forecast is empty", i)
		}
		direct, asked := 0.0, uint16(0)
		for _, task := range want.Scenario.ActiveTasks() {
			if m, ok := ref.Models[task]; ok {
				ti := tasks.IndexOf(task)
				ms := m.Predict(ref.NextContext())
				if want.Mask&(1<<uint(ti)) == 0 || want.Ms[ti] != ms {
					t.Fatalf("frame %d: PredictNext[%s] = %v (mask %b), model says %v", i, task, want.Ms[ti], want.Mask, ms)
				}
				direct += ms
				asked |= 1 << uint(ti)
			}
		}
		if asked != want.Mask || direct != want.TotalMs {
			t.Fatalf("frame %d: PredictNext total %v over mask %b, models say %v over %b", i, want.TotalMs, want.Mask, direct, asked)
		}

		ref.Observe(test[i])
		backend.Observe(&test[i])
	}

	// Reset clears online state on both paths alike.
	backend.Reset()
	ref.ResetOnline()
	wc := ref.PredictNext()
	backend.Predict(&got)
	if got.Scenario != wc.Scenario || got.Scenario != flowgraph.WorstCase() {
		t.Fatalf("post-reset scenario %v, want worst case %v", got.Scenario, flowgraph.WorstCase())
	}
}

// TestDenseObservation checks the report → observation conversion: mask
// bits, task values, and a TotalMs that is the fixed-index-order sum of the
// task times whatever order the report lists them in (byte-stable across
// calls and across execution orders).
func TestDenseObservation(t *testing.T) {
	rep := pipeline.Report{
		Scenario:       flowgraph.WorstCase(),
		AnalysisPixels: 1000,
		ROI:            frame.R(0, 0, 5, 8),
		Execs: []pipeline.TaskExec{
			{Task: tasks.NameZOOM, Ms: 0.125},
			{Task: tasks.NameCPLSSel, Ms: 0.5},
			{Task: tasks.NameRDGFull, Ms: 1.25},
		},
	}
	byIndex := map[int]float64{
		tasks.IndexOf(tasks.NameRDGFull): 1.25,
		tasks.IndexOf(tasks.NameCPLSSel): 0.5,
		tasks.IndexOf(tasks.NameZOOM):    0.125,
	}
	var want float64
	for ti := 0; ti < tasks.NumNames; ti++ {
		want += byIndex[ti]
	}
	var d Observation
	for r := 0; r < 32; r++ {
		DenseFromReport(&rep, 1000, &d)
		if d.Scenario != rep.Scenario || d.AnalysisPixels != 1000 || d.EstROIPixels != 40 || d.FramePixels != 1000 {
			t.Fatalf("context lost: %+v", d)
		}
		for ti := 0; ti < tasks.NumNames; ti++ {
			ms, ran := byIndex[ti]
			if (d.Mask&(1<<uint(ti)) != 0) != ran || d.Ms[ti] != ms {
				t.Fatalf("task %d: mask=%b ms=%v, want ran=%v ms=%v", ti, d.Mask, d.Ms[ti], ran, ms)
			}
		}
		if d.TotalMs != want {
			t.Fatalf("TotalMs = %v, want exact fixed-order sum %v", d.TotalMs, want)
		}
	}
}

// TestBaselineBackendAllocFree pins the backend's whole per-frame cycle at
// zero heap allocations — the property that lets any number of backends
// ride the serving frame path.
func TestBaselineBackendAllocFree(t *testing.T) {
	_, cloned, test := trainTwoClones(t)
	backend := NewBaselineBackend(cloned)
	var pred Prediction
	backend.Observe(&test[0]) // prime past the worst-case branch
	allocs := testing.AllocsPerRun(200, func() {
		backend.Observe(&test[0])
		backend.Predict(&pred)
	})
	if allocs != 0 {
		t.Fatalf("baseline backend allocates %.1f times per frame, want 0", allocs)
	}
}

// TestAppendSuccessorsMatchesSort: the insertion-ordered AppendSuccessors
// equals the stable sort it replaced on random tables — ties included — and
// appends after whatever the buffer already holds.
func TestAppendSuccessorsMatchesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	var buf [9]flowgraph.Scenario
	for iter := 0; iter < 500; iter++ {
		var tab ScenarioTable
		for n := rng.Intn(40); n > 0; n-- {
			// Few distinct counts, so equal probabilities are common.
			tab.Add(flowgraph.FromIndex(rng.Intn(8)), flowgraph.FromIndex(rng.Intn(8)))
		}
		from := flowgraph.FromIndex(rng.Intn(8))
		minP := []float64{0, 0.04, 0.2, 0.5}[rng.Intn(4)]

		type cand struct {
			s flowgraph.Scenario
			p float64
		}
		var cands []cand
		for i := 0; i < 8; i++ {
			to := flowgraph.FromIndex(i)
			if p := tab.P(from, to); p >= minP && p > 0 {
				cands = append(cands, cand{to, p})
			}
		}
		sort.SliceStable(cands, func(i, j int) bool { return cands[i].p > cands[j].p })

		buf[0] = flowgraph.Scenario{ROIKnown: true}
		got := tab.AppendSuccessors(buf[:1], from, minP)
		if got[0] != (flowgraph.Scenario{ROIKnown: true}) || len(got) != 1+len(cands) {
			t.Fatalf("iter %d: got %v, want prefix + %v", iter, got, cands)
		}
		for i, c := range cands {
			if got[1+i] != c.s {
				t.Fatalf("iter %d: successor %d = %v, want %v", iter, i, got[1+i], c.s)
			}
		}
		if plain := tab.Successors(from, minP); len(plain) != len(cands) || (len(plain) > 0 && plain[0] != cands[0].s) {
			t.Fatalf("iter %d: Successors = %v, want %v", iter, plain, cands)
		}
	}
}

// TestPredictorFrameCycleAllocFree pins the deployed predictor's per-frame
// cycle — observe the executed frame, forecast the next, predict a task set
// — at zero heap allocations when no metrics sink is installed. Observe used
// to heap-copy every observation.
func TestPredictorFrameCycleAllocFree(t *testing.T) {
	p, _, test := trainTwoClones(t)
	p.Observe(test[0])
	var ms [tasks.NumNames]float64
	var succ [8]flowgraph.Scenario
	i := 0
	allocs := testing.AllocsPerRun(200, func() {
		i++
		p.Observe(test[i%len(test)])
		_ = p.PredictNext()
		last, _ := p.LastScenario()
		mask := TaskMask(p.ConstrainScenario(flowgraph.WorstCase()))
		for _, s := range p.Scenarios.AppendSuccessors(succ[:0], last, 0.04) {
			mask |= TaskMask(p.ConstrainScenario(s))
		}
		p.PredictTasksInto(mask, p.NextContext(), &ms)
	})
	if allocs != 0 {
		t.Fatalf("predictor frame cycle allocates %.1f times per frame, want 0", allocs)
	}
}

// TestObserveKeepsNoAlias: the predictor keeps what it reads of an
// observation by value; refilling the caller's Observation (the serving
// loop reuses one) must not change the standing forecast.
func TestObserveKeepsNoAlias(t *testing.T) {
	p, _, test := trainTwoClones(t)
	obs := test[3]
	p.Observe(obs)
	want := p.PredictNext()
	wantCtx := p.NextContext()
	obs.Ms, obs.Mask = [tasks.NumNames]float64{}, 0
	obs.Scenario, obs.EstROIPixels, obs.FramePixels = flowgraph.Scenario{ROIKnown: true}, 7, 9
	if got := p.PredictNext(); got != want || p.NextContext() != wantCtx {
		t.Fatalf("forecast moved with the caller's observation: %+v -> %+v", want, got)
	}
}
