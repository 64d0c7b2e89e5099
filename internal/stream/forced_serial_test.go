package stream

import (
	"math"
	"runtime"
	"testing"

	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/pipeline"
	"triplec/internal/sched"
)

// forcedWindow is the frames forcedSerialRun measures.
const forcedWindow = 400

// forcedSerialRun serves one 32x32 stream through serveOne beside a second,
// never-served stream the arbiter splits the cores with, and returns the
// mallocs per frame over forcedWindow frames after warm, and the stream's
// stats.
// ctlBudgetMs is the deadline the controller admits by (a tiny one makes the
// stream's need exceed its share: ModeSerial); mgrBudgetMs the manager's (a
// tiny one misses every frame, so a degrader falls to the bottom rung).
func forcedSerialRun(t *testing.T, ctlBudgetMs, mgrBudgetMs float64, degrade bool, q pipeline.Quality) (float64, Stats) {
	t.Helper()
	const size, stored, warm, n = 32, 200, 80, 80 + forcedWindow + 1
	study := experiments.DefaultStudy()
	study.FrameW, study.FrameH = size, size
	study.Spacing = 36 * float64(size) / 128
	study.TrainSeqs, study.TrainFrames = 2, 30
	st, err := study.ServedStream(11, 0)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Frame, stored)
	for i := range frames {
		frames[i] = st.Source(i)
	}
	var before, after runtime.MemStats
	source := func(i int) *frame.Frame {
		switch i {
		case warm:
			runtime.GC()
			runtime.ReadMemStats(&before)
		case n - 1:
			runtime.ReadMemStats(&after)
		}
		j := i % (2*stored - 2)
		if j >= stored {
			j = 2*stored - 2 - j
		}
		return frames[j]
	}
	st.Engine.SetQuality(q)
	cores := st.Manager.Arch().NumCPUs
	mm, err := sched.NewMultiManager(cores, 2)
	if err != nil {
		t.Fatal(err)
	}
	mm.ReportStream(1, &sched.StreamDemand{TotalMs: 10})
	ctl := newController(mm, cores, 4, math.MaxFloat64, []float64{ctlBudgetMs, 1000.0 / 30})
	h := &host{slots: make(chan struct{}, 1)}
	res := serveOne(0, Config{
		Name: "thumb", Engine: st.Engine, Manager: st.Manager, Source: source,
		FramePixels: study.FramePixels(), BudgetMs: mgrBudgetMs,
	}, n, ctl, h, 1, nil, ServerConfig{Degrade: degrade})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Stats.Processed != n {
		t.Fatalf("processed %d of %d frames", res.Stats.Processed, n)
	}
	return float64(after.Mallocs-before.Mallocs) / float64(n-1-warm), res.Stats
}

// TestForcedSerialMallocs: a frame the controller (ModeSerial) or the
// bottom degrade rung (QualitySerial) forces serial allocates what a managed
// frame at the same shedding does — the output and pool refills only: the
// serial mapping a forced frame runs under is a value, never allocated.
func TestForcedSerialMallocs(t *testing.T) {
	const budget, tiny = 1000.0 / 30, 1e-3
	const tol = 0.5 + racePoolMallocs
	managed, ms := forcedSerialRun(t, budget, budget, false, pipeline.QualityFull)
	serial, ss := forcedSerialRun(t, tiny, budget, false, pipeline.QualityFull)
	// The bottom rung sheds what QualityNoZoom sheds and forces serial.
	shed, hs := forcedSerialRun(t, budget, budget, false, pipeline.QualityNoZoom)
	rung, rs := forcedSerialRun(t, budget, tiny, true, pipeline.QualityFull)
	t.Logf("allocations/frame: managed %.2f, ModeSerial %.2f; no-zoom managed %.2f, serial rung %.2f",
		managed, serial, shed, rung)
	if ms.SerialFallbacks != 0 || hs.SerialFallbacks != 0 {
		t.Fatalf("managed runs fell back to serial %d and %d times", ms.SerialFallbacks, hs.SerialFallbacks)
	}
	if ss.SerialFallbacks < forcedWindow || rs.SerialFallbacks < forcedWindow || rs.FinalQuality != pipeline.QualitySerial {
		t.Fatalf("forced runs served %d and %d frames serial (rung %v), want every measured frame",
			ss.SerialFallbacks, rs.SerialFallbacks, rs.FinalQuality)
	}
	if math.Abs(serial-managed) > tol {
		t.Errorf("a ModeSerial frame makes %.2f allocations, a managed frame %.2f", serial, managed)
	}
	if math.Abs(rung-shed) > tol {
		t.Errorf("a QualitySerial frame makes %.2f allocations, a managed no-zoom frame %.2f", rung, shed)
	}
}
