package shadow

import (
	"bytes"
	"math"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/flowgraph"
	"triplec/internal/metrics"
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

// testCorpus profiles a small deterministic corpus (shared, profiled once).
func testCorpus(t *testing.T) [][]core.Observation {
	t.Helper()
	s := experiments.DefaultStudy()
	s.FrameW, s.FrameH = 96, 96
	var out [][]core.Observation
	for i := uint64(0); i < 3; i++ {
		obs, err := s.Observations(300+i*11, 20)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, obs)
	}
	return out
}

func trainedRoster(t *testing.T, corpus [][]core.Observation) []core.Backend {
	t.Helper()
	deployed, err := core.Train(corpus, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	backends, err := TrainBackends(deployed, corpus, core.TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	return backends
}

// TestObserveFrameAllocFree pins the full observe-score-repredict cycle of
// the real four-backend roster at zero allocations per frame — the
// tentpole's frame-path guarantee, with metrics enabled.
func TestObserveFrameAllocFree(t *testing.T) {
	corpus := testCorpus(t)
	board, err := NewBoard("pin", trainedRoster(t, corpus))
	if err != nil {
		t.Fatal(err)
	}
	if err := board.EnableMetrics(metrics.NewRegistry()); err != nil {
		t.Fatal(err)
	}
	obs := &corpus[0][0]
	board.ObserveFrame(obs) // prime forecasts
	allocs := testing.AllocsPerRun(200, func() {
		board.ObserveFrame(obs)
	})
	if allocs != 0 {
		t.Fatalf("shadow frame path allocates %.1f times per frame, want 0", allocs)
	}
}

// TestCrossValidateDeterministic: same corpus, same config → byte-identical
// JSON and text reports.
func TestCrossValidateDeterministic(t *testing.T) {
	corpus := testCorpus(t)
	render := func() (string, string) {
		rep, err := CrossValidate(corpus, Config{Folds: 3, Warmup: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		var j, x bytes.Buffer
		if err := rep.WriteJSON(&j); err != nil {
			t.Fatal(err)
		}
		if err := rep.WriteText(&x); err != nil {
			t.Fatal(err)
		}
		return j.String(), x.String()
	}
	j1, x1 := render()
	j2, x2 := render()
	if j1 != j2 {
		t.Fatal("JSON reports differ between same-corpus runs")
	}
	if x1 != x2 {
		t.Fatal("text reports differ between same-corpus runs")
	}
	if !strings.Contains(j1, Schema) {
		t.Fatalf("report missing schema tag %q", Schema)
	}
}

// TestReportCheck exercises the CI gate.
func TestReportCheck(t *testing.T) {
	corpus := testCorpus(t)
	rep, err := CrossValidate(corpus, Config{Folds: 3, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := rep.Check(0); err != nil {
		t.Fatalf("valid report rejected: %v", err)
	}
	if err := rep.Check(1.01); err == nil {
		t.Fatal("impossible accuracy floor accepted")
	}
	bad := *rep
	bad.Schema = "other"
	if err := bad.Check(0); err == nil {
		t.Fatal("wrong schema accepted")
	}
	bad = *rep
	bad.Backends = rep.Backends[:2]
	if err := bad.Check(0); err == nil {
		t.Fatal("two-backend report accepted, want at least 4")
	}
	bad = *rep
	bad.Backends = append([]BackendSnapshot{}, rep.Backends...)
	bad.Backends[0], bad.Backends[1] = bad.Backends[1], bad.Backends[0]
	if err := bad.Check(0); err == nil {
		t.Fatal("report with non-baseline slot 0 accepted")
	}
}

// TestShadowExposition scrapes a metrics registry carrying the per-backend
// shadow families plus the Go runtime gauges and strictly parses the
// Prometheus text exposition: TYPE before samples, valid names, parseable
// values, and the expected families present per backend label.
func TestShadowExposition(t *testing.T) {
	corpus := testCorpus(t)
	board, err := NewBoard("s0", trainedRoster(t, corpus))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if err := board.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := metrics.NewRuntimeMetrics(reg); err != nil {
		t.Fatal(err)
	}
	for _, seq := range corpus {
		board.ResetSequence()
		for i := range seq {
			board.ObserveFrame(&seq[i])
		}
	}

	rec := httptest.NewRecorder()
	metrics.Handler(reg).ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	text := rec.Body.String()

	typed := map[string]bool{}
	series := map[string]bool{}
	for ln, line := range strings.Split(text, "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# ") {
			parts := strings.SplitN(line, " ", 4)
			if len(parts) < 4 || (parts[1] != "HELP" && parts[1] != "TYPE") {
				t.Fatalf("line %d: malformed comment %q", ln+1, line)
			}
			if parts[1] == "TYPE" {
				typed[parts[2]] = true
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			t.Fatalf("line %d: no value in %q", ln+1, line)
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			if !strings.HasSuffix(name, "}") {
				t.Fatalf("line %d: unterminated labels in %q", ln+1, line)
			}
			name = name[:i]
		}
		base := name
		for _, suf := range []string{"_bucket", "_sum", "_count"} {
			if cut, ok := strings.CutSuffix(name, suf); ok && typed[cut] {
				base = cut
				break
			}
		}
		if !typed[base] {
			t.Fatalf("line %d: sample %q precedes its TYPE declaration", ln+1, line)
		}
		v := line[sp+1:]
		if v != "+Inf" && v != "-Inf" && v != "NaN" {
			if _, err := parseFloat(v); err != nil {
				t.Fatalf("line %d: bad value %q", ln+1, v)
			}
		}
		series[line[:sp]] = true
	}

	backendNames := []string{core.BackendBaseline, BackendOrder2, BackendRidge, BackendQuantile}
	sort.Strings(backendNames)
	for _, be := range backendNames {
		for _, fam := range []string{
			"triplec_shadow_scenario_hit_total",
			"triplec_shadow_scenario_miss_total",
			"triplec_shadow_degenerate_samples_total",
			"triplec_shadow_regret_ms",
			"triplec_shadow_total_rel_error_count",
			"triplec_shadow_abs_error_ms_count",
		} {
			want := fam + `{backend="` + be + `",stream="s0"}`
			if !series[want] {
				t.Errorf("exposition missing series %s", want)
			}
		}
	}
	for _, fam := range []string{
		"triplec_shadow_frames_total",
		"triplec_go_goroutines",
		"triplec_go_heap_alloc_bytes",
		"triplec_go_gc_pause_total_ns",
	} {
		found := false
		for s := range series {
			if strings.HasPrefix(s, fam) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("exposition missing family %s", fam)
		}
	}
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// TestPredictorzHandler renders the scoreboard page and checks the 404
// fallback when shadow mode is off.
func TestPredictorzHandler(t *testing.T) {
	corpus := testCorpus(t)
	board, err := NewBoard("s0", trainedRoster(t, corpus))
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus[0] {
		board.ObserveFrame(&corpus[0][i])
	}

	rec := httptest.NewRecorder()
	Handler([]*Board{board}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/predictorz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"predictor shadow bake-off", core.BackendBaseline, BackendOrder2, BackendRidge, BackendQuantile} {
		esc := strings.ReplaceAll(want, "+", "&#43;")
		if !strings.Contains(body, want) && !strings.Contains(body, esc) {
			t.Errorf("page missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/predictorz", nil))
	if rec.Code != 404 {
		t.Fatalf("empty-board status = %d, want 404", rec.Code)
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

// TestTrainBackendsRoster: baseline first, all names unique, all predict
// something sane after training.
func TestTrainBackendsRoster(t *testing.T) {
	corpus := testCorpus(t)
	backends := trainedRoster(t, corpus)
	if len(backends) < 4 {
		t.Fatalf("roster has %d backends, want at least 4", len(backends))
	}
	if backends[0].Name() != core.BackendBaseline {
		t.Fatalf("roster[0] = %q, want %q", backends[0].Name(), core.BackendBaseline)
	}
	seen := map[string]bool{}
	var pred core.Prediction
	for _, be := range backends {
		if seen[be.Name()] {
			t.Fatalf("duplicate backend name %q", be.Name())
		}
		seen[be.Name()] = true
		be.Reset()
		be.Observe(&corpus[0][0])
		be.Predict(&pred)
		if pred.Mask == 0 || pred.TotalMs <= 0 ||
			math.IsNaN(pred.TotalMs) || math.IsInf(pred.TotalMs, 0) {
			t.Fatalf("backend %s produced an empty or non-finite forecast: mask=%b total=%v",
				be.Name(), pred.Mask, pred.TotalMs)
		}
	}
}
