package stream

import (
	"encoding/json"
	"net/http/httptest"
	"runtime"
	"testing"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/metrics"
	"triplec/internal/shadow"
)

// mkShadowBoard trains the full backend roster on the study's corpus and
// wraps it in a board for one stream.
func mkShadowBoard(t *testing.T, study experiments.Study, p *core.Predictor, name string) *shadow.Board {
	t.Helper()
	train, err := study.TrainingSets()
	if err != nil {
		t.Fatal(err)
	}
	board, err := shadow.NewStreamBoard(name, p, train, false)
	if err != nil {
		t.Fatal(err)
	}
	return board
}

// TestServeWithShadowBoard runs the serving loop with a shadow board
// attached and checks the bake-off scored the stream's frames without
// touching the serving results, and that /healthz reports the deployed
// predictor identity plus the rolling scenario hit rate.
func TestServeWithShadowBoard(t *testing.T) {
	s := testStudy()
	p, err := s.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkStream(t, s, "shadowed", 5, 0)
	board := mkShadowBoard(t, s, p, "shadowed")
	cfg.Shadow = board

	reg := metrics.NewRegistry()
	if err := board.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{Metrics: reg}, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	const frames = 30
	res, err := srv.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams[0].Stats.Processed == 0 {
		t.Fatal("no frames served")
	}

	snap := board.Snapshot()
	if snap.FramesObserved != uint64(res.Streams[0].Stats.Processed) {
		t.Errorf("board observed %d frames, stream processed %d",
			snap.FramesObserved, res.Streams[0].Stats.Processed)
	}
	if snap.FramesScored == 0 {
		t.Error("board scored no frames")
	}
	if len(snap.Backends) < 4 {
		t.Errorf("board races %d backends, want at least 4", len(snap.Backends))
	}
	if snap.Deployed != core.BackendBaseline {
		t.Errorf("deployed = %q, want %q", snap.Deployed, core.BackendBaseline)
	}
	for _, b := range snap.Backends {
		if b.ScenarioHits+b.ScenarioMisses != snap.FramesScored {
			t.Errorf("backend %s scored %d scenario outcomes, want %d",
				b.Name, b.ScenarioHits+b.ScenarioMisses, snap.FramesScored)
		}
	}

	// /healthz carries the deployed predictor identity and the rolling
	// scenario hit-rate window.
	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var rep struct {
		Streams []struct {
			Predictor              string  `json:"predictor"`
			RollingScenarioHitRate float64 `json:"rolling_scenario_hit_rate"`
			RollingScenarioSamples int     `json:"rolling_scenario_samples"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	h := rep.Streams[0]
	if h.Predictor != core.BackendBaseline {
		t.Errorf("healthz predictor = %q, want %q", h.Predictor, core.BackendBaseline)
	}
	if h.RollingScenarioSamples == 0 {
		t.Error("healthz rolling window is empty after a served run")
	}
	if h.RollingScenarioHitRate < 0 || h.RollingScenarioHitRate > 1 {
		t.Errorf("rolling hit rate %v outside [0,1]", h.RollingScenarioHitRate)
	}
}

// TestServeShadowAllocBudget re-runs the steady-state allocation budget
// with the shadow bake-off attached: racing four extra backends must not
// add per-frame heap traffic beyond the serving loop's existing budget.
func TestServeShadowAllocBudget(t *testing.T) {
	s := testStudy()
	p, err := s.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	cfg := mkStream(t, s, "pin-shadow", 17, 0)
	cfg.Shadow = mkShadowBoard(t, s, p, "pin-shadow")
	srv, err := NewServer(ServerConfig{}, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(10); err != nil { // warm pools and forecasts
		t.Fatal(err)
	}

	const frames = 40
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	if _, err := srv.Run(frames); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)

	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / frames
	framePixelBytes := float64(s.FramePixels() * 2)
	budget := 6 * framePixelBytes // identical to the shadow-less pin
	t.Logf("shadowed steady state: %.0f bytes/frame (budget %.0f)", perFrame, budget)
	if perFrame > budget {
		t.Errorf("shadowed serving loop allocates %.0f bytes/frame, budget %.0f", perFrame, budget)
	}
}
