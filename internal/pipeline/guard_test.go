package pipeline

import (
	"errors"
	"strings"
	"testing"

	"triplec/internal/partition"
	"triplec/internal/tasks"
)

// gateFunc is a scriptable TaskGate for tests.
type gateFunc struct {
	allow   func(tasks.Name) bool
	records []struct {
		task tasks.Name
		ok   bool
	}
}

func (g *gateFunc) Allow(task tasks.Name) bool {
	if g.allow == nil {
		return true
	}
	return g.allow(task)
}

func (g *gateFunc) Record(task tasks.Name, ok bool) {
	g.records = append(g.records, struct {
		task tasks.Name
		ok   bool
	}{task, ok})
}

func TestProcessRecoversTaskPanic(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 17)

	// Panic exactly once, inside ENH of frame 2.
	e.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if task == tasks.NameENH && frameIdx == 2 {
			panic("injected enhancement fault")
		}
	})

	var taskErr *TaskError
	processed := 0
	for i := 0; i < 10; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			if !errors.As(err, &taskErr) {
				t.Fatalf("frame %d: error is not a TaskError: %v", i, err)
			}
			continue
		}
		processed++
		if rep.LatencyMs <= 0 {
			t.Fatalf("frame %d: bad report after recovery", i)
		}
	}
	if taskErr == nil {
		t.Fatal("injected panic did not surface as a TaskError")
	}
	if taskErr.Task != tasks.NameENH || taskErr.Frame != 2 {
		t.Fatalf("panic attributed to %s at frame %d, want ENH at 2", taskErr.Task, taskErr.Frame)
	}
	if taskErr.Cause != "injected enhancement fault" {
		t.Fatalf("cause %v lost", taskErr.Cause)
	}
	if len(taskErr.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(taskErr.Error(), "ENH") || !strings.Contains(taskErr.Error(), "frame 2") {
		t.Fatalf("error string %q lacks attribution", taskErr.Error())
	}
	if processed != 9 {
		t.Fatalf("%d frames processed after one recovered panic, want 9", processed)
	}
}

func TestRecoveredPanicResetsTemporalState(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 19)
	for i := 0; i < 5; i++ {
		f, _ := s.Frame(i)
		if _, err := e.Process(f, partition.Serial()); err != nil {
			t.Fatal(err)
		}
	}
	e.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 5 {
			panic("poison")
		}
	})
	f, _ := s.Frame(5)
	if _, err := e.Process(f, partition.Serial()); err == nil {
		t.Fatal("poisoned frame succeeded")
	}
	e.SetTaskHook(nil)
	// The frame after a recovered panic starts from a clean temporal stack:
	// no predecessor, so registration cannot succeed, like frame 0.
	f, _ = s.Frame(6)
	rep, err := e.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Index != 6 {
		t.Fatalf("frame index %d after recovery, want 6", rep.Index)
	}
	if rep.Registration.OK {
		t.Fatal("registration succeeded against state from before the panic")
	}
	if rep.Scenario.ROIKnown {
		t.Fatal("stale ROI survived the panic")
	}
}

func TestHookPanicAttributedToHookedTask(t *testing.T) {
	e := newEngine(t)
	f, _ := testSeq(t, 23).Frame(0)
	e.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if task == tasks.NameMKXExt {
			panic(42)
		}
	})
	_, err := e.Process(f, partition.Serial())
	var te *TaskError
	if !errors.As(err, &te) {
		t.Fatalf("got %v", err)
	}
	if te.Task != tasks.NameMKXExt || te.Cause != 42 {
		t.Fatalf("attribution %s/%v, want MKX_EXT/42", te.Task, te.Cause)
	}
}

func TestGateSuppressesTask(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 29)
	g := &gateFunc{allow: func(task tasks.Name) bool { return task != tasks.NameZOOM }}
	e.SetGate(g)
	sawSuppressed := false
	for i := 0; i < 20; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Ran(tasks.NameZOOM) || rep.Output != nil {
			t.Fatalf("frame %d: gated ZOOM ran", i)
		}
		for _, name := range rep.Suppressed {
			if name == tasks.NameZOOM {
				sawSuppressed = true
			}
		}
		// Enhancement must still run whenever registration succeeds.
		if rep.Registration.OK && !rep.Ran(tasks.NameENH) {
			t.Fatalf("frame %d: ENH vanished with ZOOM gated", i)
		}
	}
	if !sawSuppressed {
		t.Fatal("suppression never recorded on a report")
	}
	// Successful gated tasks must have been recorded as ok.
	okSeen := false
	for _, r := range g.records {
		if !r.ok {
			t.Fatalf("spurious failure recorded for %s", r.task)
		}
		okSeen = true
	}
	if !okSeen {
		t.Fatal("no gate outcomes recorded")
	}
}

func TestGateRecordsFailureOnPanic(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 31)
	g := &gateFunc{}
	e.SetGate(g)
	e.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if task == tasks.NameGWExt {
			panic("gw dies")
		}
	})
	var failures int
	for i := 0; i < 15; i++ {
		f, _ := s.Frame(i)
		_, err := e.Process(f, partition.Serial())
		var te *TaskError
		if errors.As(err, &te) && te.Task != tasks.NameGWExt {
			t.Fatalf("frame %d: panic attributed to %s", i, te.Task)
		}
	}
	for _, r := range g.records {
		if r.task == tasks.NameGWExt && !r.ok {
			failures++
		}
		if r.task == tasks.NameGWExt && r.ok {
			t.Fatal("panicking GW_EXT recorded as success")
		}
	}
	if failures == 0 {
		t.Fatal("GW_EXT failures never reached the gate")
	}
}

func TestQualityShedsTasksInProcess(t *testing.T) {
	e := newEngine(t)
	s := testSeq(t, 37)
	e.SetQuality(QualityNoZoom)
	if e.Quality() != QualityNoZoom {
		t.Fatal("quality not applied")
	}
	for i := 0; i < 20; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Quality != QualityNoZoom {
			t.Fatalf("frame %d: report quality %v", i, rep.Quality)
		}
		if rep.Ran(tasks.NameRDGFull) || rep.Ran(tasks.NameRDGROI) || rep.Ran(tasks.NameZOOM) {
			t.Fatalf("frame %d: shed task ran at no-zoom", i)
		}
		if rep.Output != nil {
			t.Fatalf("frame %d: zoomed output produced with ZOOM shed", i)
		}
		if rep.Registration.OK && !rep.Ran(tasks.NameENH) {
			t.Fatalf("frame %d: ENH shed (must survive every rung)", i)
		}
	}
	// Back at full quality the pipeline produces output again.
	e.SetQuality(QualityFull)
	sawOutput := false
	for i := 20; i < 45; i++ {
		f, _ := s.Frame(i)
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Output != nil {
			sawOutput = true
		}
	}
	if !sawOutput {
		t.Fatal("no output after restoring full quality")
	}
}

func TestSetQualityClamps(t *testing.T) {
	e := newEngine(t)
	e.SetQuality(Quality(-3))
	if e.Quality() != QualityFull {
		t.Fatal("negative quality not clamped")
	}
	e.SetQuality(Quality(99))
	if e.Quality() != QualityMax {
		t.Fatal("oversized quality not clamped")
	}
}
