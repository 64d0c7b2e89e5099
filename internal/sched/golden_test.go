package sched

import (
	"math"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/platform"
	"triplec/internal/tasks"
)

// resultDigest folds what a managed run decided and delivered — every
// decision's mapping (stripe count per task, in task-index order),
// predicted latency and repartition flag, and the regulated output latency
// series — into one order-sensitive FNV-1a value.
func resultDigest(results ...Result) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for _, res := range results {
		mix(uint64(len(res.Decisions)))
		for _, d := range res.Decisions {
			for ti := range tasks.NumNames {
				mix(uint64(d.Mapping.StripesAt(ti)))
			}
			mix(math.Float64bits(d.PredictedMs))
			if d.Repartition {
				mix(1)
			} else {
				mix(0)
			}
		}
		mix(uint64(len(res.Output)))
		for _, v := range res.Output {
			mix(math.Float64bits(v))
		}
	}
	return h
}

// TestRunManagedGoldenDigest pins the runtime-manager loop itself — plan
// from the prediction, process, budget from the first frame, feed back —
// across refactors of that loop: 200 managed frames for every combination
// of sticky hysteresis and adaptive budget, and two applications sharing the
// machine. The constants were recorded at ade9e74, when RunManaged and
// RunMultiApp each still wrote the loop out by hand.
func TestRunManagedGoldenDigest(t *testing.T) {
	base := trainedPredictor(t)
	manager := func(sticky, budgeter bool) *Manager {
		p, err := base.Clone()
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewManager(p, platform.Blackford())
		if err != nil {
			t.Fatal(err)
		}
		m.Sticky = sticky
		if budgeter {
			m.Budgeter = NewBudgetController()
		}
		return m
	}
	source := func(seed uint64) func(int) *frame.Frame {
		seq := synthSeq(t, seed)
		return func(i int) *frame.Frame { f, _ := seq.Frame(i); return f }
	}

	for _, tc := range []struct {
		name             string
		sticky, budgeter bool
		want             uint64
	}{
		{"plain", false, false, 0xa43828fa42602eb9},
		{"sticky", true, false, 0xbb9b8871ee6f5f8f},
		{"budgeter", false, true, 0x556e69d388fc56bd},
		{"sticky+budgeter", true, true, 0x048a7e0c98651ce5},
	} {
		res, err := RunManaged(newEngine(t), manager(tc.sticky, tc.budgeter), 200, source(424242), 128*128)
		if err != nil {
			t.Fatal(err)
		}
		repartitions := 0
		for _, d := range res.Decisions {
			if d.Repartition {
				repartitions++
			}
		}
		if repartitions == 0 {
			t.Errorf("%s: the run never repartitioned; the golden would not cover planning", tc.name)
		}
		if got := resultDigest(res); got != tc.want {
			t.Errorf("%s: digest %#016x, want %#016x", tc.name, got, tc.want)
		}
	}

	apps := make([]App, 2)
	for ai := range apps {
		m := manager(true, false)
		if err := m.SetCoreBudget(4); err != nil {
			t.Fatal(err)
		}
		apps[ai] = App{
			Name: "app", Engine: newEngine(t), Manager: m,
			Source: source(1111 * uint64(ai+1)), FramePixels: 128 * 128,
		}
	}
	multi, err := RunMultiApp(apps, 120)
	if err != nil {
		t.Fatal(err)
	}
	const wantMulti = uint64(0xbbc1034653457b32)
	if got := resultDigest(multi.PerApp...); got != wantMulti {
		t.Errorf("multi-app: digest %#016x, want %#016x", got, wantMulti)
	}
}
