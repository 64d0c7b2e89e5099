package promote_test

import (
	"testing"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/flowgraph"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
)

// exactBackend forecasts the observation it last saw — a perfectly
// calibrated challenger for exercising the steady canary path.
type exactBackend struct {
	name string
	pred core.Prediction
}

func (e *exactBackend) Name() string { return e.name }

func (e *exactBackend) Observe(obs *core.Observation) {
	e.pred = core.Prediction{
		Scenario: obs.Scenario,
		Mask:     obs.Mask,
		Ms:       obs.Ms,
		TotalMs:  obs.TotalMs,
	}
}

func (e *exactBackend) Predict(dst *core.Prediction) { *dst = e.pred }

func (e *exactBackend) Reset() { e.pred = core.Prediction{} }

// TestCanaryObservationPathAllocFree pins the controller's steady-state
// per-frame work — board scoring feeding observeScores, plus the served
// deadline outcome — at zero allocations while a canary is live.
func TestCanaryObservationPathAllocFree(t *testing.T) {
	study := experiments.DefaultStudy()
	study.FrameW, study.FrameH = 96, 96
	study.TrainSeqs = 2
	study.TrainFrames = 30
	p, err := study.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	mgr, err := sched.NewManager(p, study.Arch)
	if err != nil {
		t.Fatal(err)
	}
	board, err := shadow.NewBoard("pin", []core.Backend{
		&exactBackend{name: core.BackendBaseline},
		&exactBackend{name: "challenger"},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := promote.NewController(promote.Config{Challenger: "challenger"})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.AttachStream("pin", board, mgr); err != nil {
		t.Fatal(err)
	}

	obs := core.Observation{
		Scenario:    flowgraph.WorstCase(),
		TotalMs:     10,
		FramePixels: 100,
		Mask:        1,
	}
	obs.Ms[0] = 10
	// Warm up: prime the forecasts and take the shadow -> canary transition
	// (which appends to the log) outside the measured window.
	for i := 0; i < 8; i++ {
		board.ObserveFrame(&obs)
		ctl.ObserveServed(0, false)
	}
	if st := ctl.State(); st != promote.StateCanary {
		t.Fatalf("controller in %s after warmup, want canary", st)
	}
	// The warmup and the measured frames stay inside CanaryFrames, so the
	// canary is still open when the pin ends.
	allocs := testing.AllocsPerRun(promote.CanaryFrames-16, func() {
		board.ObserveFrame(&obs)
		ctl.ObserveServed(0, false)
	})
	if allocs != 0 {
		t.Fatalf("canary observation path allocates %.1f times per frame, want 0", allocs)
	}
	if st := ctl.State(); st != promote.StateCanary {
		t.Fatalf("controller left canary during the pin: %s", st)
	}
}
