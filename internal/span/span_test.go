package span

import (
	"reflect"
	"testing"
)

func TestFrameBuilderCommit(t *testing.T) {
	rec := NewRecorder(64)
	b := NewFrameBuilder(rec, 2)

	b.BeginFrame(0)
	b.BeginTask(3)
	b.EndTask(4.5, 2)
	b.BeginTask(5)
	b.EndTask(1.25, 1)
	b.Suppressed(7)
	b.ScenarioMiss(1, 4)
	b.SetPredicted(3, 5.0)
	b.Commit(17, 4, 1, OutcomeProcessed, 6, 6.0, 5.75, 8.0)

	if got := rec.FramesCommitted(); got != 1 {
		t.Fatalf("FramesCommitted = %d, want 1", got)
	}
	evs := rec.Snapshot()
	if len(evs) != 5 { // 2 tasks + suppressed + miss + root
		t.Fatalf("snapshot has %d events, want 5", len(evs))
	}
	root := evs[len(evs)-1]
	if root.Kind != KindFrame {
		t.Fatalf("last committed event is %v, want KindFrame (root-last ordering)", root.Kind)
	}
	if root.Stream != 2 || root.Frame != 17 || root.Scenario != 4 || root.Quality != 1 ||
		root.Outcome != OutcomeProcessed || root.Cores != 6 {
		t.Errorf("root fields wrong: %+v", root)
	}
	if root.Arg0 != 6.0 || root.Arg1 != 5.75 || root.Arg2 != 8.0 {
		t.Errorf("root pred/actual/budget = %v/%v/%v, want 6/5.75/8", root.Arg0, root.Arg1, root.Arg2)
	}
	if root.DurNs < 0 {
		t.Errorf("root duration negative: %d", root.DurNs)
	}

	var task3 *Event
	for i := range evs {
		if evs[i].Kind == KindTask && evs[i].Task == 3 {
			task3 = &evs[i]
		}
	}
	if task3 == nil {
		t.Fatal("task 3 span missing from commit")
	}
	if task3.Arg0 != 5.0 {
		t.Errorf("SetPredicted did not land: Arg0 = %v, want 5", task3.Arg0)
	}
	if task3.Arg1 != 4.5 || task3.Cores != 2 {
		t.Errorf("task actual/stripes = %v/%d, want 4.5/2", task3.Arg1, task3.Cores)
	}
	// Commit must override the engine-local frame index and stamp frame
	// context onto every staged task span.
	for _, ev := range evs {
		if ev.Frame != 17 {
			t.Errorf("%s staged with frame %d, want 17", KindName(ev.Kind), ev.Frame)
		}
		if ev.Kind == KindTask && (ev.Scenario != 4 || ev.Quality != 1) {
			t.Errorf("task span missing frame context: %+v", ev)
		}
	}

	// Second commit with no open frame must be a no-op.
	b.Commit(18, 0, 0, OutcomeProcessed, 1, 0, 0, 0)
	if got := rec.FramesCommitted(); got != 1 {
		t.Errorf("commit without open frame committed: frames = %d", got)
	}
}

func TestFrameBuilderDanglingTask(t *testing.T) {
	rec := NewRecorder(64)
	b := NewFrameBuilder(rec, 0)
	b.BeginFrame(0)
	b.BeginTask(1) // never ended: simulates a panic unwinding mid-task
	b.AbortFrame()
	b.Commit(0, -1, 0, OutcomeFailed, 2, 0, 0, 10)

	evs := rec.Snapshot()
	if len(evs) != 2 {
		t.Fatalf("snapshot has %d events, want 2", len(evs))
	}
	if evs[0].Kind != KindTask || evs[0].Arg1 != 0 {
		t.Errorf("dangling task not force-closed: %+v", evs[0])
	}
	if evs[1].Outcome != OutcomeFailed {
		t.Errorf("frame outcome = %s, want failed", OutcomeName(evs[1].Outcome))
	}
}

func TestFrameBuilderStagingOverflow(t *testing.T) {
	rec := NewRecorder(256)
	b := NewFrameBuilder(rec, 0)
	b.BeginFrame(0)
	for i := 0; i < 3*maxFrameTasks; i++ {
		b.BeginTask(i)
		b.EndTask(1, 1)
	}
	b.Commit(0, 0, 0, OutcomeProcessed, 1, 0, 0, 0)
	evs := rec.Snapshot()
	if want := maxFrameTasks + maxFrameInstants + 1; len(evs) != want {
		t.Errorf("overflowing frame committed %d events, want capped %d", len(evs), want)
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	rec := NewRecorder(8)
	b := NewFrameBuilder(rec, 0)
	for f := 0; f < 10; f++ {
		b.BeginFrame(f)
		b.BeginTask(0)
		b.EndTask(1, 1)
		b.Commit(f, 0, 0, OutcomeProcessed, 1, 0, 0, 0)
	}
	evs := rec.Snapshot()
	if len(evs) != 8 {
		t.Fatalf("snapshot has %d events, want ring size 8", len(evs))
	}
	if got := rec.Events(); got != 20 {
		t.Errorf("Events = %d, want 20 total written", got)
	}
	// Newest event must be the latest frame's root (root-last ordering).
	last := evs[len(evs)-1]
	if last.Kind != KindFrame || last.Frame != 9 {
		t.Errorf("newest event = %+v, want frame 9 root", last)
	}
}

func TestNilSafety(t *testing.T) {
	var rec *Recorder
	var b *FrameBuilder
	var fr *FlightRecorder
	rec.Emit(Event{})
	rec.SetMeta(Meta{})
	_ = rec.Meta()
	_ = rec.Now()
	_ = rec.Snapshot()
	_ = rec.Events()
	_ = rec.FramesCommitted()
	b.BeginFrame(0)
	b.BeginTask(0)
	b.EndTask(1, 1)
	b.Suppressed(0)
	b.ScenarioMiss(0, 1)
	b.SetPredicted(0, 1)
	b.AbortFrame()
	b.Commit(0, 0, 0, OutcomeProcessed, 1, 0, 0, 0)
	if b.Open() {
		t.Error("nil builder reports open")
	}
	fr.ObserveFrame(0, 0, true, 1, 2)
	fr.ObservePanic(0, 0)
	fr.ObserveQuarantine(0, 0)
	_ = fr.Flush()
	_ = fr.Dumps()
	_ = fr.Err()
	_ = fr.Recorder()
	_ = fr.Dir()
	fr.SetMeta(Meta{})
	if h := fr.TracezHandler(); h == nil {
		t.Error("nil flight recorder handler is nil")
	}
}

func TestPackBudgetsRoundTrip(t *testing.T) {
	cases := [][]int{
		{},
		{4},
		{2, 3, 3},
		{0, 255, 17, 1, 9, 200, 31, 8},
	}
	for _, in := range cases {
		p, n := PackBudgets(in)
		got := UnpackBudgets(p, n)
		want := in
		if want == nil || len(want) == 0 {
			want = []int{}
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("PackBudgets(%v) round trip = %v", in, got)
		}
	}
	// Clamping and truncation.
	p, n := PackBudgets([]int{-5, 999, 1, 2, 3, 4, 5, 6, 7, 8})
	if n != 8 {
		t.Errorf("packed %d budgets, want 8 max", n)
	}
	got := UnpackBudgets(p, n)
	if got[0] != 0 || got[1] != 255 {
		t.Errorf("clamping failed: %v", got)
	}
}

func TestLabelFallback(t *testing.T) {
	table := [][]byte{[]byte(`"a"`), []byte(`"b"`)}
	for _, tc := range []struct {
		i    int
		want string
	}{
		{1, `"b"`},
		{5, `"x5"`}, // past the table: generic fallback
		{1047, `"x1047"`},
		{-1, `""`},
	} {
		if got := string(appendLabel(nil, table, tc.i, "x")); got != tc.want {
			t.Errorf("appendLabel(%d) = %s, want %s", tc.i, got, tc.want)
		}
	}
}
