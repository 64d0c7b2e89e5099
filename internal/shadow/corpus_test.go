package shadow_test

// The tests that profile their corpus with internal/experiments. That
// package imports shadow for the promotion drill, so these tests live in an
// external test package.

import (
	"bytes"
	"math"
	"math/rand/v2"
	"net/http/httptest"
	"sort"
	"strconv"
	"strings"
	"testing"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/metrics"
	"triplec/internal/shadow"
)

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
	backends, err := shadow.TrainBackends(deployed, corpus, core.TrainConfig{})
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
	board, err := shadow.NewBoard("pin", trainedRoster(t, corpus))
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
		rep, err := shadow.CrossValidate(corpus, shadow.Config{Folds: 3, Warmup: 1, Seed: 42})
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
	if !strings.Contains(j1, shadow.Schema) {
		t.Fatalf("report missing schema tag %q", shadow.Schema)
	}
}

// TestReportCheck exercises the CI gate.
func TestReportCheck(t *testing.T) {
	corpus := testCorpus(t)
	rep, err := shadow.CrossValidate(corpus, shadow.Config{Folds: 3, Seed: 1})
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
	bad.Backends = append([]shadow.BackendSnapshot{}, rep.Backends...)
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
	board, err := shadow.NewBoard("s0", trainedRoster(t, corpus))
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

	backendNames := []string{core.BackendBaseline, shadow.BackendOrder2, shadow.BackendRidge, shadow.BackendQuantile}
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
	board, err := shadow.NewBoard("s0", trainedRoster(t, corpus))
	if err != nil {
		t.Fatal(err)
	}
	for i := range corpus[0] {
		board.ObserveFrame(&corpus[0][i])
	}

	rec := httptest.NewRecorder()
	shadow.Handler([]*shadow.Board{board}).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/predictorz", nil))
	if rec.Code != 200 {
		t.Fatalf("status = %d, want 200", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"predictor shadow bake-off", core.BackendBaseline, shadow.BackendOrder2, shadow.BackendRidge, shadow.BackendQuantile} {
		esc := strings.ReplaceAll(want, "+", "&#43;")
		if !strings.Contains(body, want) && !strings.Contains(body, esc) {
			t.Errorf("page missing %q", want)
		}
	}

	rec = httptest.NewRecorder()
	shadow.Handler(nil).ServeHTTP(rec, httptest.NewRequest("GET", "/debug/predictorz", nil))
	if rec.Code != 404 {
		t.Fatalf("empty-board status = %d, want 404", rec.Code)
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

// servedCorpus profiles the training corpus of a served size² stream, the
// one NewStreamBoard warm-starts from.
func servedCorpus(t testing.TB, size int) [][]core.Observation {
	t.Helper()
	s := experiments.DefaultStudy()
	s.FrameW, s.FrameH = size, size
	s.Spacing = 36 * float64(size) / 128
	s.TrainSeqs, s.TrainFrames = 4, 60
	st, err := s.ServedStream(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	return st.Corpus
}

// TestRidgeMatchesDenseRecursion holds the ridge backend's grouped
// covariances to the dense per-task recursion in every bit of w and P,
// over served-stream corpora replayed for 20,000 frames, once as served and
// once with random task drops that split the groups.
func TestRidgeMatchesDenseRecursion(t *testing.T) {
	const frames = 20000
	for _, size := range []int{32, 128} {
		var obs []core.Observation
		for _, seq := range servedCorpus(t, size) {
			obs = append(obs, seq...)
		}
		for _, drops := range []bool{false, true} {
			o := shadow.NewRidgeOracle()
			rng := rand.New(rand.NewPCG(uint64(size), 7))
			for i := 0; i < frames; i++ {
				f := obs[i%len(obs)]
				if drops && rng.IntN(8) == 0 {
					f.Mask &= uint16(rng.Uint32())
				}
				o.Observe(&f)
				if msg := o.Mismatch(); msg != "" {
					t.Fatalf("%d², drops %v, frame %d: %s", size, drops, i, msg)
				}
			}
			t.Logf("%d², drops %v: %d covariance groups", size, drops, o.Groups())
		}
	}
}

// TestRidgeStaysFinite: the bias feature always equals the sum of the
// scenario one-hot, so one direction of the covariance is never excited;
// unbounded, it overflowed and every ridge forecast turned NaN after ~46k
// frames.
func TestRidgeStaysFinite(t *testing.T) {
	const frames = 200000
	var obs []core.Observation
	for _, seq := range servedCorpus(t, 32) {
		obs = append(obs, seq...)
	}
	b := shadow.NewRidgeBackend()
	var p core.Prediction
	for i := 0; i < frames; i++ {
		b.Predict(&p)
		finite := !math.IsNaN(p.TotalMs) && !math.IsInf(p.TotalMs, 0)
		for _, ms := range p.Ms {
			finite = finite && !math.IsNaN(ms) && !math.IsInf(ms, 0)
		}
		if !finite {
			t.Fatalf("frame %d: ridge forecast %+v is not finite", i, p)
		}
		b.Observe(&obs[i%len(obs)])
	}
}

// BenchmarkBoardObserveFrame is one frame of a served 32² stream's board:
// the real roster, warm-started from the stream's corpus, metrics on.
func BenchmarkBoardObserveFrame(b *testing.B) {
	corpus := servedCorpus(b, 32)
	deployed, err := core.Train(corpus, core.TrainConfig{})
	if err != nil {
		b.Fatal(err)
	}
	board, err := shadow.NewStreamBoard("thumb", deployed, corpus, false)
	if err != nil {
		b.Fatal(err)
	}
	if err := board.EnableMetrics(metrics.NewRegistry()); err != nil {
		b.Fatal(err)
	}
	var obs []core.Observation
	for _, seq := range corpus {
		obs = append(obs, seq...)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board.ObserveFrame(&obs[i%len(obs)])
	}
}
