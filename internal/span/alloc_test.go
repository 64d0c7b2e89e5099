package span

import "testing"

// TestRecordingAllocatesNothing pins the tracing contract the serving loop
// relies on: with recording enabled, the full per-frame span path — begin
// frame, task spans, prediction fill-in, instants, commit to the ring —
// performs zero heap allocations.
func TestRecordingAllocatesNothing(t *testing.T) {
	rec := NewRecorder(4096)
	b := NewFrameBuilder(rec, 1)
	frame := 0
	allocs := testing.AllocsPerRun(200, func() {
		b.BeginFrame(frame)
		for task := 0; task < 5; task++ {
			b.BeginTask(task)
			b.EndTask(1.5, 2)
		}
		b.SetPredicted(2, 1.4)
		b.Suppressed(7)
		b.ScenarioMiss(0, 3)
		b.Commit(frame, 3, 1, OutcomeProcessed, 4, 9.5, 9.1, 12.0)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("enabled span recording allocates %.1f per frame, want 0", allocs)
	}
}

// TestEmitAllocatesNothing pins the same contract for out-of-frame instant
// events (rebalances, faults, breaker trips).
func TestEmitAllocatesNothing(t *testing.T) {
	rec := NewRecorder(4096)
	allocs := testing.AllocsPerRun(200, func() {
		rec.Emit(Event{Kind: KindRebalance, Stream: -1, Frame: -1, Cores: 3})
	})
	if allocs != 0 {
		t.Fatalf("Emit allocates %.1f per event, want 0", allocs)
	}
}

// TestObserveFrameNoFireAllocatesNothing pins the trigger engine's fast
// path: feeding a healthy frame to an armed flight recorder (no trigger
// fires) must not allocate.
func TestObserveFrameNoFireAllocatesNothing(t *testing.T) {
	fr, err := NewFlightRecorder(t.TempDir(), DefaultTriggers())
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		fr.ObserveFrame(0, 1, false, 10.0, 10.2)
	})
	if allocs != 0 {
		t.Fatalf("no-fire ObserveFrame allocates %.1f, want 0", allocs)
	}
}

// BenchmarkFrameEnabled measures the steady-state per-frame recording cost.
func BenchmarkFrameEnabled(b *testing.B) {
	rec := NewRecorder(8192)
	fb := NewFrameBuilder(rec, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb.BeginFrame(i)
		for task := 0; task < 5; task++ {
			fb.BeginTask(task)
			fb.EndTask(1.5, 2)
		}
		fb.SetPredicted(2, 1.4)
		fb.Commit(i, 3, 1, OutcomeProcessed, 4, 9.5, 9.1, 12.0)
	}
}

// BenchmarkFrameDisabled measures the disabled-path no-op cost: what a
// deployment pays for leaving the instrumentation compiled in but switched
// off — the nil builder every untraced stream carries.
func BenchmarkFrameDisabled(b *testing.B) {
	var fb *FrameBuilder
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		fb.BeginFrame(i)
		for task := 0; task < 5; task++ {
			fb.BeginTask(task)
			fb.EndTask(1.5, 2)
		}
		fb.SetPredicted(2, 1.4)
		fb.Commit(i, 3, 1, OutcomeProcessed, 4, 9.5, 9.1, 12.0)
	}
}
