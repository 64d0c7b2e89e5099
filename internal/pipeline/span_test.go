package pipeline

import (
	"testing"

	"triplec/internal/partition"
	"triplec/internal/span"
	"triplec/internal/tasks"
)

// TestProcessStagesTaskSpans checks that an engine with a span builder
// attached stages one task span per executed task, with the modeled time
// and stripe count the report carries.
func TestProcessStagesTaskSpans(t *testing.T) {
	e := newEngine(t)
	rec := span.NewRecorder(256)
	b := span.NewFrameBuilder(rec, 0)
	e.SetSpanBuilder(b)
	if e.SpanBuilder() != b {
		t.Fatal("SpanBuilder does not return the attached builder")
	}

	seq := testSeq(t, 3)
	f, _ := seq.Frame(0)
	rep, err := e.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	b.Commit(0, rep.Scenario.Index(), int(rep.Quality), span.OutcomeProcessed,
		1, 0, rep.LatencyMs, 0)

	evs := rec.Snapshot()
	byTask := map[int32]span.Event{}
	for _, ev := range evs {
		if ev.Kind == span.KindTask {
			byTask[ev.Task] = ev
		}
	}
	if len(byTask) != len(rep.Execs) {
		t.Fatalf("staged %d task spans, report ran %d tasks", len(byTask), len(rep.Execs))
	}
	for _, ex := range rep.Execs {
		ev, ok := byTask[int32(tasks.IndexOf(ex.Task))]
		if !ok {
			t.Errorf("no span staged for task %s", ex.Task)
			continue
		}
		if ev.Arg1 != ex.Ms {
			t.Errorf("%s span actual = %v ms, report charged %v ms", ex.Task, ev.Arg1, ex.Ms)
		}
		if int(ev.Cores) != ex.Stripes {
			t.Errorf("%s span stripes = %d, report says %d", ex.Task, ev.Cores, ex.Stripes)
		}
		if ev.DurNs < 0 {
			t.Errorf("%s span has negative duration", ex.Task)
		}
	}
	if got := rec.FramesCommitted(); got != 1 {
		t.Fatalf("FramesCommitted = %d, want 1", got)
	}
}

// TestPanicAbortsAttributedSpan checks the panic path: a task hook that
// panics leaves the in-flight task span attributed, and recoverFrame
// force-closes it so the failed frame can still be committed.
func TestPanicAbortsAttributedSpan(t *testing.T) {
	e := newEngine(t)
	rec := span.NewRecorder(256)
	b := span.NewFrameBuilder(rec, 0)
	e.SetSpanBuilder(b)
	e.SetTaskHook(func(name tasks.Name, frameIdx int) {
		if name == tasks.NameDetect {
			panic("injected")
		}
	})

	seq := testSeq(t, 3)
	f, _ := seq.Frame(0)
	if _, err := e.Process(f, partition.Serial()); err == nil {
		t.Fatal("injected panic did not surface as TaskError")
	}
	b.Commit(0, -1, 0, span.OutcomeFailed, 1, 0, 0, 0)
	if rec.FramesCommitted() != 1 {
		t.Fatal("frame closed by the panic; serving layer could not commit it")
	}

	evs := rec.Snapshot()
	var panicked *span.Event
	for i := range evs {
		if evs[i].Kind == span.KindTask && evs[i].Task == int32(tasks.IndexOf(tasks.NameDetect)) {
			panicked = &evs[i]
		}
	}
	if panicked == nil {
		t.Fatal("panicking task left no attributed span")
	}
	if panicked.Arg1 != 0 {
		t.Errorf("aborted span carries modeled time %v, want 0", panicked.Arg1)
	}
	root := evs[len(evs)-1]
	if root.Kind != span.KindFrame || root.Outcome != span.OutcomeFailed {
		t.Errorf("failed frame root wrong: %+v", root)
	}
}

// TestSuppressedTasksStageInstants checks that quality shedding stages
// suppressed-task instants rather than task spans.
func TestSuppressedTasksStageInstants(t *testing.T) {
	e := newEngine(t)
	rec := span.NewRecorder(256)
	b := span.NewFrameBuilder(rec, 0)
	e.SetSpanBuilder(b)
	e.SetQuality(QualityNoZoom)

	seq := testSeq(t, 3)
	f, _ := seq.Frame(0)
	rep, err := e.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Suppressed) == 0 {
		t.Skip("quality rung suppressed nothing on this frame")
	}
	b.Commit(0, rep.Scenario.Index(), int(rep.Quality), span.OutcomeProcessed, 1, 0, rep.LatencyMs, 0)

	suppressed := 0
	for _, ev := range rec.Snapshot() {
		if ev.Kind == span.KindSuppressed {
			suppressed++
		}
	}
	if suppressed != len(rep.Suppressed) {
		t.Errorf("staged %d suppressed instants, report lists %d", suppressed, len(rep.Suppressed))
	}
}
