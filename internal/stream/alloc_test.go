package stream

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/mapping"
	"triplec/internal/metrics"
	"triplec/internal/promote"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
)

// TestServeSteadyStateAllocBudget pins the serving loop's per-frame heap
// traffic. Each offered frame inherently allocates its synthesized input
// frame and the escaping zoom output; with the frame pool and Into-kernels
// threaded through the engine, everything in between is recycled. The
// budget of six frame-equivalents per offered frame fails if the pipeline
// regresses to allocating its intermediates fresh (which costs tens of
// frame-equivalents per frame).
func TestServeSteadyStateAllocBudget(t *testing.T) {
	s := testStudy()
	cfg := mkStream(t, s, "pin", 17, 0)
	srv, err := NewServer(ServerConfig{}, []Config{cfg})
	if err != nil {
		t.Fatal(err)
	}
	// Warm pools, predictor memoization and trace buffers.
	if _, err := srv.Run(10); err != nil {
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
	budget := 6 * framePixelBytes
	t.Logf("serving steady state: %.0f bytes/frame (budget %.0f)", perFrame, budget)
	if perFrame > budget {
		t.Errorf("serving loop allocates %.0f bytes/frame, budget %.0f", perFrame, budget)
	}
}

// TestControlPlaneMallocBudget guards, in tier-1, the count the benchmark
// gates on its control-32x1 workload: a 32x32 thumbnail stream served with
// every optional layer on — metrics, flight recorder with the default
// triggers, shadow board, a watching promotion controller, SLO tracking with
// exemplars, the Pareto optimizer re-dividing after every frame — where the
// kernels nearly vanish and the control plane is the frame. The bytes budget
// above cannot see it: before the planner, optimizer and dump writer went
// dense this path made ~205 small allocations per frame, ~15 after, and ~8
// once the runner's hand-off to a worker was made once; an unwatched frame
// now runs on the serving goroutine with no hand-off, and a report's task
// records and couple are carved from chunks, leaving the output frames, the
// flight dumps and pool refills after a collection (0.4 a frame).
// The run must also have written flight dumps (their cost is inside the
// count), and they must read back.
func TestControlPlaneMallocBudget(t *testing.T) {
	const (
		size, stored   = 32, 400
		warm, measured = 300, 2400
		maxMallocs     = 1 + racePoolMallocs
	)
	study := experiments.DefaultStudy()
	study.FrameW, study.FrameH = size, size
	study.Spacing = 36 * float64(size) / 128
	study.TrainSeqs, study.TrainFrames = 4, 60

	// Stored frames served in ping-pong order: synthesis is the load
	// generator's cost, not the server's.
	st, err := study.ServedStream(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Frame, stored)
	for i := range frames {
		frames[i] = st.Source(i)
	}
	source := func(i int) *frame.Frame {
		j := i % (2*stored - 2)
		if j >= stored {
			j = 2*stored - 2 - j
		}
		return frames[j]
	}
	eng, mgr := st.Engine, st.Manager
	board, err := shadow.NewStreamBoard("thumb", mgr.Predictor(), st.Corpus, false)
	if err != nil {
		t.Fatal(err)
	}
	opt, err := mapping.NewOptimizer(study.Arch)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := promote.NewController(promote.Config{Challenger: "auto", BeatFrames: math.MaxInt32})
	if err != nil {
		t.Fatal(err)
	}
	flight, err := span.NewFlightRecorder(t.TempDir(), span.DefaultTriggers())
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	if err := board.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}
	tracker := slo.NewTracker(slo.Config{Streams: 1})
	if err := tracker.EnableMetrics(reg, []string{"thumb"}); err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		HostWorkers: 1, Mapper: opt, RebalanceEvery: 1,
		Metrics: reg, Flight: flight, Promote: ctl, SLO: tracker, SLOExemplars: true,
	}, []Config{{
		Name: "thumb", Engine: eng, Manager: mgr, Source: source,
		FramePixels: study.FramePixels(), BudgetMs: 1000.0 / 30, Shadow: board,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ctl.EnableMetrics(reg); err != nil {
		t.Fatal(err)
	}

	if _, err := srv.Run(warm); err != nil {
		t.Fatal(err)
	}
	dumpsBefore := len(flight.Dumps())
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := srv.Run(measured)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got := res.Streams[0].Stats.Processed; got != measured {
		t.Fatalf("processed %d of %d frames", got, measured)
	}
	if res.Rebalances < measured {
		t.Fatalf("%d re-divisions over %d frames; the optimizer must run every frame", res.Rebalances, measured)
	}

	perFrame := float64(after.Mallocs-before.Mallocs) / measured
	t.Logf("control plane: %.1f allocations/frame (budget %d), %.0f bytes/frame",
		perFrame, maxMallocs, float64(after.TotalAlloc-before.TotalAlloc)/measured)
	if perFrame > maxMallocs {
		t.Errorf("fully-observed 32x32 serving makes %.1f allocations/frame, budget %d", perFrame, maxMallocs)
	}

	if err := flight.Flush(); err != nil {
		t.Fatal(err)
	}
	dumps := flight.Dumps()
	if len(dumps) <= dumpsBefore {
		t.Fatalf("no flight dump was written during the measured frames (%d before, %d after)", dumpsBefore, len(dumps))
	}
	for _, info := range dumps {
		f, err := os.Open(filepath.Join(flight.Dir(), info.File))
		if err != nil {
			t.Fatal(err)
		}
		d, err := span.ReadDump(f)
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", info.File, err)
		}
		// (Two Runs share the recorder, so frame indices repeat in the ring
		// and the reader folds them: frame counts need not match the index.)
		if d.Reason != info.Reason || len(d.Frames) == 0 {
			t.Fatalf("%s read back as %q with %d frames, index says %q with %d", info.File, d.Reason, len(d.Frames), info.Reason, info.Frames)
		}
	}
}
