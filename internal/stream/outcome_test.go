package stream

import (
	"encoding/json"
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"triplec/internal/frame"
	"triplec/internal/metrics"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/tasks"
)

// healthz decodes the server's /healthz body.
func healthz(t *testing.T, srv *Server) []Health {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.HealthHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	var rep struct{ Streams []Health }
	if err := json.Unmarshal(rec.Body.Bytes(), &rep); err != nil {
		t.Fatalf("healthz is not JSON: %v", err)
	}
	return rep.Streams
}

// TestOutcomeObserversAgree: one overloaded run that produces all four
// outcome kinds — skipped (load past SkipOver), failed (a panicking task),
// abandoned (a task sleeping past the watchdog) and processed — with Metrics,
// Flight and SLO on. Per stream and kind, the Stats bucket, the /healthz
// counter, the trace columns and the span ring must count the same frames.
func TestOutcomeObserversAgree(t *testing.T) {
	s := testStudy()
	cfgs := []Config{
		mkStream(t, s, "panicky", 1, 1),
		mkStream(t, s, "sleepy", 2, 1),
		mkStream(t, s, "plain", 3, 1),
	}
	cfgs[0].Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx%7 == 3 {
			panic("injected")
		}
	})
	cfgs[1].Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 4 && task == tasks.NameDetect {
			time.Sleep(time.Duration(120*raceScale) * time.Millisecond)
		}
	})
	// The default ring holds the whole run.
	flight, err := span.NewFlightRecorder(t.TempDir(), span.DefaultTriggers())
	if err != nil {
		t.Fatal(err)
	}
	tracker := slo.NewTracker(slo.Config{Streams: len(cfgs)})
	srv, err := NewServer(ServerConfig{
		ModelCores: 2, RebalanceEvery: 2, SkipOver: 1.5, HostWorkers: 4,
		WatchdogMs: 40 * raceScale, StallMs: 4000 * raceScale,
		Metrics: metrics.NewRegistry(), Flight: flight, SLO: tracker,
	}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 30
	res, err := srv.Run(n)
	if err != nil {
		t.Fatal(err)
	}

	// Span ring: frame roots by outcome, plus skip instants.
	spans := make([][outSkipped + 1]int, len(cfgs))
	for _, ev := range flight.Recorder().Snapshot() {
		switch ev.Kind {
		case span.KindFrame:
			spans[ev.Stream][ev.Outcome]++
		case span.KindSkip:
			spans[ev.Stream][outSkipped]++
		}
	}
	health := healthz(t, srv)
	kinds := []struct {
		name   string
		kind   int
		col    string // trace column marking the kind; "" for processed
		stats  func(Stats) int
		health func(Health) uint64
	}{
		{"processed", outProcessed, "", func(s Stats) int { return s.Processed }, func(h Health) uint64 { return h.Processed }},
		{"skipped", outSkipped, "skipped", func(s Stats) int { return s.Skipped }, func(h Health) uint64 { return h.Skipped }},
		{"failed", outFailed, "failed", func(s Stats) int { return s.Failed }, func(h Health) uint64 { return h.Failed }},
		{"abandoned", outAbandoned, "abandoned", func(s Stats) int { return s.Abandoned }, func(h Health) uint64 { return h.Abandoned }},
	}
	fleet := make([]int, len(kinds))
	for si, r := range res.Streams {
		st := r.Stats
		cols := map[string][]float64{}
		for _, c := range []string{"skipped", "failed", "abandoned"} {
			if cols[c], err = r.Trace.Get(c); err != nil {
				t.Fatal(err)
			}
		}
		for ki, k := range kinds {
			traced := 0
			for row := 0; row < r.Trace.Len(); row++ {
				lost := cols["skipped"][row] + cols["failed"][row] + cols["abandoned"][row]
				if (k.col == "" && lost == 0) || (k.col != "" && cols[k.col][row] == 1) {
					traced++
				}
			}
			want := k.stats(st)
			fleet[ki] += want
			if got := int(k.health(health[si])); got != want {
				t.Errorf("%s %s: healthz %d, stats %d", st.Name, k.name, got, want)
			}
			if traced != want {
				t.Errorf("%s %s: trace %d, stats %d", st.Name, k.name, traced, want)
			}
			if got := spans[si][k.kind]; got != want {
				t.Errorf("%s %s: span ring %d, stats %d", st.Name, k.name, got, want)
			}
		}
		if sum := st.Processed + st.Skipped + st.Failed + st.Abandoned; st.Offered != n || sum != n {
			t.Errorf("%s: offered %d, buckets sum to %d, want %d", st.Name, st.Offered, sum, n)
		}
		if r.Trace.Len() != st.Offered {
			t.Errorf("%s: %d trace rows for %d offered frames", st.Name, r.Trace.Len(), st.Offered)
		}
		if lat := srv.tels[si].acct.FrameLatencyMs.Snapshot(); int(lat.Count) != st.Processed {
			t.Errorf("%s: latency histogram holds %d frames, processed %d", st.Name, lat.Count, st.Processed)
		}
	}
	for ki, k := range kinds {
		if fleet[ki] == 0 {
			t.Errorf("the run produced no %s frame", k.name)
		}
	}
	if got := tracker.Status(false).Fleet.Frames; int(got) != fleet[0] {
		t.Errorf("SLO ledger classified %d frames, %d processed", got, fleet[0])
	}
}

// TestUnsupervisedKillingFrameResolved: without Supervise, the frame that
// kills the serving loop is still resolved — failed, with a trace row — so
// every offered frame lands in one bucket.
func TestUnsupervisedKillingFrameResolved(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "dies", 5, 0)
	src := sc.Source
	sc.Source = func(i int) *frame.Frame {
		if i == 5 {
			return nil
		}
		return src(i)
	}
	srv, err := NewServer(ServerConfig{Metrics: metrics.NewRegistry()}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(10)
	if err == nil {
		t.Fatal("a nil source frame must end an unsupervised stream with an error")
	}
	r := res.Streams[0]
	st := r.Stats
	if st.Offered != 6 || st.Processed != 5 || st.Failed != 1 {
		t.Fatalf("offered %d processed %d failed %d, want 6 / 5 / 1", st.Offered, st.Processed, st.Failed)
	}
	if r.Trace.Len() != st.Offered {
		t.Fatalf("%d trace rows for %d offered frames", r.Trace.Len(), st.Offered)
	}
	failed, err := r.Trace.Get("failed")
	if err != nil {
		t.Fatal(err)
	}
	if failed[5] != 1 {
		t.Fatalf("the killing frame's row is not marked failed: %v", failed)
	}
	h := healthz(t, srv)[0]
	if h.Offered != 6 || h.Processed != 5 || h.Failed != 1 {
		t.Fatalf("healthz offered %d processed %d failed %d, want 6 / 5 / 1", h.Offered, h.Processed, h.Failed)
	}
}

// TestAbandonedFrameNotInLatencyHistograms: a frame the watchdog gave up on
// completes on its late goroutine, but only processed frames reach the
// frame-latency and per-task actual-time histograms and the /healthz
// latency summary.
func TestAbandonedFrameNotInLatencyHistograms(t *testing.T) {
	s := testStudy()
	sc := mkStream(t, s, "late", 43, 0)
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 4 && task == tasks.NameDetect {
			time.Sleep(time.Duration(80*raceScale) * time.Millisecond)
		}
	})
	srv, err := NewServer(ServerConfig{
		WatchdogMs: 20 * raceScale, StallMs: 2000 * raceScale, Metrics: metrics.NewRegistry(),
	}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	st := res.Streams[0].Stats
	if st.Abandoned != 1 || st.Processed != 9 {
		t.Fatalf("abandoned %d processed %d, want 1 / 9", st.Abandoned, st.Processed)
	}
	a := srv.tels[0].acct
	if got := a.FrameLatencyMs.Snapshot().Count; int(got) != st.Processed {
		t.Errorf("latency histogram holds %d frames, processed %d", got, st.Processed)
	}
	execs, observed := 0, uint64(0)
	for _, rep := range res.Streams[0].Reports {
		execs += len(rep.Execs)
	}
	for _, h := range a.TaskMs {
		observed += h.Snapshot().Count
	}
	if int(observed) != execs {
		t.Errorf("task histograms hold %d executions, processed frames ran %d", observed, execs)
	}
	if h := healthz(t, srv)[0]; math.Abs(h.MeanLatencyMs-st.MeanLatencyMs) > 1e-9 {
		t.Errorf("healthz mean latency %v ms, processed frames' mean %v ms", h.MeanLatencyMs, st.MeanLatencyMs)
	}
}
