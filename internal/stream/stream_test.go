package stream

import (
	"errors"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

// testStudy is a cheap training setup shared by all stream tests (the
// trained predictor is memoized per study configuration).
func testStudy() experiments.Study {
	s := experiments.DefaultStudy()
	s.TrainSeqs = 2
	s.TrainFrames = 30
	return s
}

// cheapSource returns a frame source whose scenario mix is deliberately
// light: no contrast bursts (ridge detection mostly off) and markers fading
// every other frame (registration fails, the enhancement tail is skipped).
// Its per-frame demand is a fraction of a normal sequence's, giving the
// arbiter a real gap to re-divide over.
func cheapSource(t *testing.T, study experiments.Study, seed uint64) func(int) *frame.Frame {
	t.Helper()
	cfg := study.SynthConfig(seed)
	cfg.DropoutEvery = 2
	cfg.ContrastEvery = 0
	seq, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return experiments.Source(seq)
}

func mkStream(t *testing.T, study experiments.Study, name string, seed uint64, budgetMs float64) Config {
	t.Helper()
	st, err := study.ServedStream(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Name:        name,
		Engine:      st.Engine,
		Manager:     st.Manager,
		Source:      st.Source,
		FramePixels: study.FramePixels(),
		BudgetMs:    budgetMs,
	}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}, nil); err == nil {
		t.Fatal("empty stream set accepted")
	}
	s := testStudy()
	cfg := mkStream(t, s, "a", 1, 0)
	broken := cfg
	broken.Engine = nil
	if _, err := NewServer(ServerConfig{}, []Config{broken}); err == nil {
		t.Fatal("nil engine accepted")
	}
	broken = cfg
	broken.FramePixels = 0
	if _, err := NewServer(ServerConfig{}, []Config{broken}); err == nil {
		t.Fatal("zero frame pixels accepted")
	}
	broken = cfg
	broken.BudgetMs = -1
	if _, err := NewServer(ServerConfig{}, []Config{broken}); err == nil {
		t.Fatal("negative budget accepted")
	}
	broken = cfg
	broken.BudgetMs = math.NaN()
	if _, err := NewServer(ServerConfig{}, []Config{broken}); err == nil {
		t.Fatal("NaN budget accepted")
	}
	broken = cfg
	broken.BudgetMs = math.Inf(1)
	if _, err := NewServer(ServerConfig{}, []Config{broken}); err == nil {
		t.Fatal("infinite budget accepted")
	}
	for _, bad := range []ServerConfig{
		{WatchdogMs: -1},
		{WatchdogMs: math.NaN()},
		{StallMs: -1},
		{WatchdogMs: 50, StallMs: 20}, // stall bound below the watchdog
		{Supervise: true, MaxRestarts: -1},
		{Supervise: true, RestartBudget: -1},
	} {
		if _, err := NewServer(bad, []Config{cfg}); err == nil {
			t.Fatalf("invalid server config accepted: %+v", bad)
		}
	}
	srv, err := NewServer(ServerConfig{}, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(0); err == nil {
		t.Fatal("zero frames accepted")
	}
}

// The core concurrency test: N engines process concurrently, one goroutine
// each, sharing the host slots (exercised under -race by the CI recipe).
func TestServeConcurrentStreams(t *testing.T) {
	s := testStudy()
	cfgs := []Config{
		mkStream(t, s, "s0", 11, 0),
		mkStream(t, s, "s1", 22, 0),
		mkStream(t, s, "s2", 33, 0),
	}
	srv, err := NewServer(ServerConfig{RebalanceEvery: 3}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 25
	res, err := srv.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, r := range res.Streams {
		st := r.Stats
		if st.Offered != n {
			t.Fatalf("stream %d offered %d frames, want %d", i, st.Offered, n)
		}
		if st.Processed+st.Skipped != n {
			t.Fatalf("stream %d: processed %d + skipped %d != %d", i, st.Processed, st.Skipped, n)
		}
		if len(r.Reports) != st.Processed {
			t.Fatalf("stream %d: %d reports for %d processed frames", i, len(r.Reports), st.Processed)
		}
		if r.Trace.Len() != n {
			t.Fatalf("stream %d trace has %d rows, want %d", i, r.Trace.Len(), n)
		}
		if st.Processed > 0 && st.MeanLatencyMs <= 0 {
			t.Fatalf("stream %d mean latency %v", i, st.MeanLatencyMs)
		}
		if st.BudgetMs <= 0 {
			t.Fatalf("stream %d budget never initialized", i)
		}
		total += st.Processed
	}
	if total == 0 {
		t.Fatal("nothing processed")
	}
	if res.AggregateFPS <= 0 || res.WallMs <= 0 {
		t.Fatalf("throughput bookkeeping empty: %v fps over %v ms", res.AggregateFPS, res.WallMs)
	}
	sum := 0
	for _, b := range res.FinalBudgets {
		if b < 1 {
			t.Fatalf("final budgets %v below the one-core floor", res.FinalBudgets)
		}
		sum += b
	}
	if sum != s.Arch.NumCPUs {
		t.Fatalf("final budgets %v do not sum to the %d-core machine", res.FinalBudgets, s.Arch.NumCPUs)
	}
}

// The controller must shift cores toward the heavier stream mid-run.
func TestControllerReallocatesMidRun(t *testing.T) {
	s := testStudy()
	light := mkStream(t, s, "light", 44, 0)
	light.Source = cheapSource(t, s, 44)
	heavy := mkStream(t, s, "heavy", 55, 0)
	srv, err := NewServer(ServerConfig{RebalanceEvery: 2}, []Config{light, heavy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rebalances == 0 {
		t.Fatal("controller never rebalanced")
	}
	if res.FinalBudgets[1] <= res.FinalBudgets[0] {
		t.Fatalf("heavy stream got %d cores, light got %d: no demand-driven shift",
			res.FinalBudgets[1], res.FinalBudgets[0])
	}
	// The allocation change must be visible in the per-frame series too.
	cores, err := res.Streams[1].Trace.Get("cores")
	if err != nil {
		t.Fatal(err)
	}
	varied := false
	for _, v := range cores[1:] {
		if v != cores[0] {
			varied = true
			break
		}
	}
	if !varied {
		t.Fatal("heavy stream's core allocation never changed mid-run")
	}
}

// Overload: three streams with infeasible deadlines on a modeled 2-core
// machine must shed (serial fallback and alternate-frame skips) instead of
// failing, and the controller must keep every stream serving.
func TestSheddingUnderOverload(t *testing.T) {
	s := testStudy()
	cfgs := []Config{
		mkStream(t, s, "a", 1, 1),
		mkStream(t, s, "b", 2, 1),
		mkStream(t, s, "c", 3, 1),
	}
	srv, err := NewServer(ServerConfig{ModelCores: 2, RebalanceEvery: 2, SkipOver: 1.5}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	const n = 20
	res, err := srv.Run(n)
	if err != nil {
		t.Fatal(err)
	}
	skipped, serial := 0, 0
	for i, r := range res.Streams {
		st := r.Stats
		if st.Processed+st.Skipped != n {
			t.Fatalf("stream %d lost frames: %d + %d != %d", i, st.Processed, st.Skipped, n)
		}
		if st.Processed == 0 {
			t.Fatalf("stream %d starved entirely", i)
		}
		skipped += st.Skipped
		serial += st.SerialFallbacks
	}
	if skipped == 0 {
		t.Fatal("overload shed no frames")
	}
	if serial == 0 {
		t.Fatal("overload forced no serial fallbacks")
	}
}

// A failing stream records its error and the remaining streams keep
// serving to completion.
func TestStreamFailureIsolated(t *testing.T) {
	s := testStudy()
	good := mkStream(t, s, "good", 66, 0)
	bad := mkStream(t, s, "bad", 77, 0)
	goodSrc := good.Source
	badSrc := bad.Source
	bad.Source = func(i int) *frame.Frame {
		if i == 3 {
			return nil
		}
		return badSrc(i)
	}
	good.Source = goodSrc
	srv, err := NewServer(ServerConfig{}, []Config{good, bad})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	res, err := srv.Run(n)
	if err == nil {
		t.Fatal("failing stream produced no error")
	}
	if !strings.Contains(err.Error(), "bad") {
		t.Fatalf("error %q does not name the failing stream", err)
	}
	if res.Streams[1].Err == nil {
		t.Fatal("failing stream's result has no error")
	}
	if res.Streams[0].Err != nil {
		t.Fatalf("healthy stream errored: %v", res.Streams[0].Err)
	}
	if res.Streams[0].Stats.Processed != n {
		t.Fatalf("healthy stream processed %d frames, want %d", res.Streams[0].Stats.Processed, n)
	}
}

func TestMergedTrace(t *testing.T) {
	s := testStudy()
	cfgs := []Config{mkStream(t, s, "x", 7, 0), mkStream(t, s, "y", 8, 0)}
	srv, err := NewServer(ServerConfig{}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(8)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := res.MergedTrace()
	if err != nil {
		t.Fatal(err)
	}
	if merged.Len() != 8 {
		t.Fatalf("merged trace has %d rows, want 8", merged.Len())
	}
	if _, err := merged.Get("x_latency_ms"); err != nil {
		t.Fatal(err)
	}
	if _, err := merged.Get("y_missed"); err != nil {
		t.Fatal(err)
	}
	if got := len(merged.Names()); got != 16 {
		t.Fatalf("merged trace has %d columns, want 16 (8 per stream)", got)
	}
}

// TestHostSlotsSerializeProcessing: with one host slot, two streams'
// Process calls never overlap, on the serving goroutines (no watchdog) or
// on the watched frames' goroutines.
func TestHostSlotsSerializeProcessing(t *testing.T) {
	s := testStudy()
	for _, watchdogMs := range []float64{0, 5000 * raceScale} {
		var inFlight, overlaps atomic.Int32
		cfgs := []Config{mkStream(t, s, "a", 61, 0), mkStream(t, s, "b", 62, 0)}
		for i := range cfgs {
			open := false // the engine is inside Process; touched only there
			cfgs[i].Engine.SetTaskHook(func(tasks.Name, int) {
				if !open {
					open = true
					if inFlight.Add(1) > 1 {
						overlaps.Add(1)
					}
				}
				time.Sleep(20 * time.Microsecond) // widen the window an overlap needs
			})
			cfgs[i].Engine.SetObserver(func(pipeline.Report) {
				open = false
				inFlight.Add(-1)
			})
		}
		srv, err := NewServer(ServerConfig{HostWorkers: 1, WatchdogMs: watchdogMs}, cfgs)
		if err != nil {
			t.Fatal(err)
		}
		res, err := srv.Run(20)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Streams {
			if r.Stats.Processed == 0 {
				t.Fatalf("watchdog %v ms: stream %s processed nothing", watchdogMs, r.Stats.Name)
			}
		}
		if n := overlaps.Load(); n > 0 {
			t.Fatalf("watchdog %v ms: %d frames started while the other stream's was in Process", watchdogMs, n)
		}
	}
}

// TestHostProcessReturnsEscapingPanic: a panic that escapes Engine.Process
// comes back as a *parallel.PanicError with its stack, and frees its slot.
func TestHostProcessReturnsEscapingPanic(t *testing.T) {
	h := &host{slots: make(chan struct{}, 1)}
	for call := 0; call < 2; call++ {
		_, err := h.process(nil, frame.New(4, 4), partition.Serial()) // a nil engine panics
		var pe *parallel.PanicError
		if !errors.As(err, &pe) || len(pe.Stack) == 0 {
			t.Fatalf("call %d: error %v, want a *parallel.PanicError with a stack", call, err)
		}
	}
}
