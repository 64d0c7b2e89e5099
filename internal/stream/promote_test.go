package stream

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"testing"

	"triplec/internal/core"
	"triplec/internal/metrics"
	"triplec/internal/promote"
	"triplec/internal/shadow"
	"triplec/internal/stats"
)

// commitProcessed resolves one processed frame through the telemetry commit.
func commitProcessed(tel *telemetry, latencyMs float64, missed bool) {
	tel.commit(&outcome{kind: outProcessed, latencyMs: latencyMs, missed: missed}, &core.Observation{})
}

// TestRollingMissDivergence: a late burst of deadline misses moves the
// 64-frame rolling window immediately while the lifetime rate still
// averages it away — the signal the promotion guardrails (and /healthz
// readers) depend on.
func TestRollingMissDivergence(t *testing.T) {
	reg := metrics.NewRegistry()
	acct, err := metrics.NewAccountant(reg, metrics.AccountantConfig{Stream: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	tel := &telemetry{acct: acct}

	// 100 clean frames, then a 32-frame miss burst.
	for i := 0; i < 100; i++ {
		commitProcessed(tel, 10, false)
	}
	for i := 0; i < 32; i++ {
		commitProcessed(tel, 40, true)
	}

	rolling, samples := tel.missWin.Rate()
	if samples != stats.BitWindowSize {
		t.Fatalf("rolling window holds %d samples, want %d", samples, stats.BitWindowSize)
	}
	if rolling != 0.5 {
		t.Fatalf("rolling miss rate %v, want 0.5 (32 misses in the last 64 frames)", rolling)
	}
	lifetime := float64(acct.DeadlineMisses.Value()) / float64(acct.Processed.Value())
	if lifetime >= 0.3 {
		t.Fatalf("lifetime miss rate %v, want the burst diluted below 0.3", lifetime)
	}
	if rolling <= 2*lifetime {
		t.Fatalf("rolling (%v) does not diverge from lifetime (%v) under a late burst", rolling, lifetime)
	}
}

// TestRollingMissWindowPartial: before 64 frames the window reports exactly
// the frames seen so far, masked to avoid phantom samples.
func TestRollingMissWindowPartial(t *testing.T) {
	reg := metrics.NewRegistry()
	acct, err := metrics.NewAccountant(reg, metrics.AccountantConfig{Stream: "unit"})
	if err != nil {
		t.Fatal(err)
	}
	tel := &telemetry{acct: acct}
	commitProcessed(tel, 10, true)
	commitProcessed(tel, 10, false)
	commitProcessed(tel, 10, true)
	rolling, samples := tel.missWin.Rate()
	if samples != 3 || rolling != 2.0/3.0 {
		t.Fatalf("partial window = %v over %d samples, want 2/3 over 3", rolling, samples)
	}
}

// TestRollingMissStatsMatchHealthz: the /healthz rolling window is the
// deadline outcome of the last 64 processed frames, as the run's trace
// records them in its missed column. The tight budget makes the window
// non-trivial.
func TestRollingMissStatsMatchHealthz(t *testing.T) {
	s := testStudy()
	const frames, budgetMs = 90, 24
	srv, err := NewServer(ServerConfig{Metrics: metrics.NewRegistry()}, []Config{mkStream(t, s, "tight", 9, budgetMs)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(frames)
	if err != nil {
		t.Fatal(err)
	}
	cols := map[string][]float64{}
	for _, c := range []string{"missed", "skipped", "failed", "abandoned"} {
		if cols[c], err = res.Streams[0].Trace.Get(c); err != nil {
			t.Fatal(err)
		}
	}
	var window []float64 // missed column of the processed rows
	for i, m := range cols["missed"] {
		if cols["skipped"][i]+cols["failed"][i]+cols["abandoned"][i] == 0 {
			window = append(window, m)
		}
	}
	if len(window) < stats.BitWindowSize {
		t.Fatalf("%d processed frames, want at least %d", len(window), stats.BitWindowSize)
	}
	window = window[len(window)-stats.BitWindowSize:]
	misses := 0.0
	for _, m := range window {
		misses += m
	}
	want := misses / stats.BitWindowSize
	if want <= 0 || want >= 1 {
		t.Fatalf("trace window miss rate %v; the budget should split the window", want)
	}

	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var rep struct {
		Streams []struct {
			RollingMissRate    float64 `json:"rolling_miss_rate"`
			RollingMissSamples int     `json:"rolling_miss_samples"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if len(rep.Streams) != 1 || rep.Streams[0].RollingMissRate != want ||
		rep.Streams[0].RollingMissSamples != stats.BitWindowSize {
		t.Fatalf("healthz %+v, trace window %v over %d", rep.Streams, want, stats.BitWindowSize)
	}
}

// TestServeWithPromotion runs the serving loop with the promotion
// controller attached to every stream: /healthz must carry the fleet
// promotion status and the per-stream predictor identity must follow the
// canary assignment, and /healthz must surface the rolling miss window.
func TestServeWithPromotion(t *testing.T) {
	s := testStudy()
	p, err := s.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []Config{
		mkStream(t, s, "p0", 3, 0),
		mkStream(t, s, "p1", 4, 0),
	}
	for i := range cfgs {
		cfgs[i].Shadow = mkShadowBoard(t, s, p, cfgs[i].Name)
	}
	// A named challenger canaries immediately. The run is shorter than the
	// guardrails' 16-sample minimum and the canary window, so it stays
	// inside the canary stage and the steering is observable.
	ctl, err := promote.NewController(promote.Config{
		Challenger: shadow.BackendOrder2,
		CanaryFrac: 0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	srv, err := NewServer(ServerConfig{Metrics: reg, Promote: ctl}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(15)
	if err != nil {
		t.Fatal(err)
	}

	if st := ctl.State(); st != promote.StateCanary {
		t.Fatalf("controller state %s after the run, want canary", st)
	}
	canaried := 0
	for i := range cfgs {
		switch got := ctl.StreamPredictor(i); got {
		case shadow.BackendOrder2:
			canaried++
		case core.BackendBaseline:
		default:
			t.Fatalf("stream %d predictor %q, want challenger or baseline", i, got)
		}
	}
	if canaried != 1 {
		t.Fatalf("%d of 2 streams canaried, want exactly 1 at canary-frac 0.5", canaried)
	}

	// /healthz: fleet promotion block plus per-stream predictor identity
	// and rolling miss window.
	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var rep struct {
		Promotion *promote.Status `json:"promotion"`
		Streams   []struct {
			Name               string  `json:"name"`
			Predictor          string  `json:"predictor"`
			RollingMissRate    float64 `json:"rolling_miss_rate"`
			RollingMissSamples int     `json:"rolling_miss_samples"`
		} `json:"streams"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	if rep.Promotion == nil {
		t.Fatal("healthz missing the promotion block")
	}
	if rep.Promotion.State != promote.StateCanary.String() {
		t.Fatalf("healthz promotion state %q, want %q", rep.Promotion.State, promote.StateCanary)
	}
	if rep.Promotion.Challenger != shadow.BackendOrder2 {
		t.Fatalf("healthz challenger %q, want %q", rep.Promotion.Challenger, shadow.BackendOrder2)
	}
	healthCanaried := 0
	for i, h := range rep.Streams {
		if h.Predictor == shadow.BackendOrder2 {
			healthCanaried++
		}
		if want := min(res.Streams[i].Stats.Processed, stats.BitWindowSize); h.RollingMissSamples != want {
			t.Errorf("stream %d: healthz rolling miss window holds %d samples, want %d", i, h.RollingMissSamples, want)
		}
	}
	if healthCanaried != canaried {
		t.Fatalf("healthz shows %d canaried streams, controller says %d", healthCanaried, canaried)
	}

	// The promote metric families are live on the registry.
	mrec := httptest.NewRecorder()
	metrics.Handler(reg).ServeHTTP(mrec, httptest.NewRequest("GET", "/metrics", nil))
	body := mrec.Body.String()
	for _, want := range []string{"triplec_promote_state", "triplec_promote_canary_streams"} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
}
