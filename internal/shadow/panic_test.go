package shadow

import (
	"net/http/httptest"
	"strings"
	"testing"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/metrics"
)

// panickyBackend explodes in Predict on every drive — the misbehaving
// third-party backend the board's fault boundary must contain.
type panickyBackend struct{ name string }

func (p *panickyBackend) Name() string              { return p.name }
func (p *panickyBackend) Observe(*core.Observation) {}
func (p *panickyBackend) Predict(*core.Prediction)  { panic("shadow test: predict exploded") }
func (p *panickyBackend) Reset()                    {}

// resetPanickyBackend predicts fine but explodes in Reset.
type resetPanickyBackend struct {
	stubBackend
}

func (p *resetPanickyBackend) Reset() { panic("shadow test: reset exploded") }

// TestBoardPanicQuarantine: a backend that panics while driving is scored
// as a scenario miss for that backend only, accumulates strikes on the
// panic counter, and is quarantined from the roster after three — with the
// rest of the roster and the serving path untouched throughout.
func TestBoardPanicQuarantine(t *testing.T) {
	sc := flowgraph.WorstCase()
	exact := &stubBackend{name: core.BackendBaseline, scenario: sc, totalMs: 10}
	bad := &panickyBackend{name: "panicky"}
	b, err := NewBoard("unit", []core.Backend{exact, bad})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if err := b.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	var last FrameScore
	b.SetObserver(func(fs *FrameScore) { last = *fs })

	// Frame 1 primes; frames 2 and 3 score the panicky backend's invalid
	// forecast as a miss. Its third strike lands on frame 3's drive.
	obs := frameWith(sc, 10)
	for i := 0; i < 3; i++ {
		b.ObserveFrame(&obs)
	}
	snap := b.Snapshot()
	pb := snap.Backends[1]
	if pb.Panics != 3 || !pb.Quarantined {
		t.Fatalf("panicky backend: panics=%d quarantined=%v, want 3/true", pb.Panics, pb.Quarantined)
	}
	if pb.ScenarioHits != 0 || pb.ScenarioMisses != 2 {
		t.Fatalf("panicky backend hits/misses = %d/%d, want 0/2 (miss-only scoring)",
			pb.ScenarioHits, pb.ScenarioMisses)
	}
	if pb.Total.Count != 0 {
		t.Fatalf("panicky backend recorded %d error samples from a stale forecast, want 0", pb.Total.Count)
	}
	if !last.Scores[1].Panicked || !last.Scores[1].Skipped {
		t.Fatalf("frame score flags = %+v, want Panicked+Skipped", last.Scores[1])
	}
	base := snap.Backends[0]
	if base.ScenarioHits != snap.FramesScored || base.Total.Count != snap.FramesScored {
		t.Fatalf("baseline disturbed by the neighbor's panics: %+v over %d scored frames",
			base, snap.FramesScored)
	}

	// Quarantined: further frames freeze the backend entirely while the
	// baseline keeps scoring.
	b.ObserveFrame(&obs)
	b.ObserveFrame(&obs)
	snap = b.Snapshot()
	pb = snap.Backends[1]
	if pb.Panics != 3 || pb.ScenarioMisses != 2 {
		t.Fatalf("quarantined backend not frozen: panics=%d misses=%d", pb.Panics, pb.ScenarioMisses)
	}
	if !last.Scores[1].Quarantined || !last.Scores[1].Skipped {
		t.Fatalf("post-quarantine frame score flags = %+v, want Quarantined+Skipped", last.Scores[1])
	}
	if base = snap.Backends[0]; base.ScenarioHits != snap.FramesScored {
		t.Fatalf("baseline stopped scoring after the neighbor's quarantine: %d/%d",
			base.ScenarioHits, snap.FramesScored)
	}

	rec := httptest.NewRecorder()
	metrics.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	want := `triplec_shadow_backend_panics_total{backend="panicky",stream="unit"} 3`
	if !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("exposition missing %s", want)
	}
}

// TestBoardResetPanicStrikes: a panic in Reset strikes the backend like a
// drive panic, and three sequence resets quarantine it.
func TestBoardResetPanicStrikes(t *testing.T) {
	sc := flowgraph.WorstCase()
	exact := &stubBackend{name: core.BackendBaseline, scenario: sc, totalMs: 10}
	bad := &resetPanickyBackend{stubBackend{name: "reset-panicky", scenario: sc, totalMs: 10}}
	b, err := NewBoard("unit", []core.Backend{exact, bad})
	if err != nil {
		t.Fatal(err)
	}
	obs := frameWith(sc, 10)
	for i := 0; i < 3; i++ {
		b.ObserveFrame(&obs)
		b.ResetSequence()
	}
	snap := b.Snapshot()
	pb := snap.Backends[1]
	if pb.Panics != 3 || !pb.Quarantined {
		t.Fatalf("reset panics=%d quarantined=%v, want 3/true", pb.Panics, pb.Quarantined)
	}
	// The board itself stays serviceable.
	b.ObserveFrame(&obs)
	b.ObserveFrame(&obs)
	if snap = b.Snapshot(); snap.Backends[0].ScenarioHits == 0 {
		t.Fatal("baseline stopped scoring after the neighbor's reset panics")
	}
}
