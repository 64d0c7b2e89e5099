package pipeline

import (
	"runtime"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/tasks"
)

// TestProcessSteadyStateAllocBudget pins the per-frame heap traffic of the
// steady-state pipeline. With the frame pool and the Into-kernels threaded
// through the tasks, a processed 128x128 frame (32 KB of pixels) must stay
// within a few frame-equivalents of heap traffic per frame: the fresh
// average ENH writes after handing its last one to the report, and report
// bookkeeping. Before
// the buffer-reuse work each frame allocated every intermediate fresh
// (smoothed, response, mask, resized grids, canvas, average), i.e. many
// hundreds of KB per frame; this budget fails if that regresses.
func TestProcessSteadyStateAllocBudget(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 3)
	const warm, measured, maxMallocs = 12, 24, 3 + racePoolMallocs

	// Pre-generate inputs so synthesis cost stays out of the measurement.
	inputs := make([]*frame.Frame, warm+measured)
	for i := range inputs {
		inputs[i], _ = s.Frame(i)
	}
	for i := 0; i < warm; i++ {
		if _, err := e.Process(inputs[i], nil); err != nil {
			t.Fatal(err)
		}
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := warm; i < warm+measured; i++ {
		if _, err := e.Process(inputs[i], nil); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)

	perFrame := float64(after.TotalAlloc-before.TotalAlloc) / measured
	mallocs := float64(after.Mallocs-before.Mallocs) / measured
	framePixelBytes := float64(e.cfg.Width * e.cfg.Height * 2)
	// Budget: three frame-equivalents per processed frame. The dominant
	// remaining allocation is the output: ZOOM at the canvas size hands
	// ENH's average to the report, which keeps it, and ENH allocates the
	// frame it averages into next. Everything else is bookkeeping.
	budget := 3 * framePixelBytes
	t.Logf("steady state: %.0f bytes/frame (budget %.0f), %.1f allocations/frame", perFrame, budget, mallocs)
	if perFrame > budget {
		t.Errorf("steady-state pipeline allocates %.0f bytes/frame, budget %.0f", perFrame, budget)
	}
	// The count, beside the bytes: charge used to rebuild the cache-occupation
	// analysis of every task of every frame (13 small allocations a frame for
	// a constant of the configuration), and MKX made its component, stack and
	// candidate slices afresh, which a bytes budget cannot see. The report's
	// task records and couple are carved from chunks and the ROI view lives
	// in the frame record, so what is left is the output's header and pixels
	// and the pools' refills after the collection above (2.4 a frame).
	if mallocs > maxMallocs {
		t.Errorf("steady-state pipeline makes %.1f allocations/frame, budget %d", mallocs, maxMallocs)
	}
}

// TestProcessReleasesFrameRecord: Process reuses one execution record, and
// after a frame — processed or failed — the record holds neither the frame
// nor its report, so the engine keeps nothing of the frame alive.
func TestProcessReleasesFrameRecord(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 3)
	for i := 0; i < 4; i++ {
		f, _ := s.Frame(i)
		if _, err := e.Process(f, nil); err != nil {
			t.Fatal(err)
		}
		if fx := &e.fx; fx.f != nil || fx.couple != nil || fx.rep.Execs != nil || fx.rep.Output != nil {
			t.Fatalf("frame %d: record still holds the frame after commit", i)
		}
	}
	e.SetTaskHook(func(tasks.Name, int) { panic("injected") })
	f, _ := s.Frame(4)
	if _, err := e.Process(f, nil); err == nil {
		t.Fatal("injected panic did not fail the frame")
	}
	if fx := &e.fx; fx.f != nil || fx.rep.Execs != nil {
		t.Fatal("record still holds the frame after a failed frame")
	}
}
