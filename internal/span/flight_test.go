package span

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// commitFrames pushes n trivially-valid frames through a builder.
func commitFrames(b *FrameBuilder, start, n int) {
	for i := 0; i < n; i++ {
		b.BeginFrame(start + i)
		b.BeginTask(0)
		b.EndTask(2, 1)
		b.SetPredicted(0, 1.8)
		b.Commit(start+i, 1, 0, OutcomeProcessed, 2, 2.0, 2.1, 5.0)
	}
}

func newTestFlight(t *testing.T, cfg TriggerConfig) *FlightRecorder {
	t.Helper()
	fr, err := NewFlightRecorder(t.TempDir(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	fr.SetMeta(Meta{
		Streams:   []string{"s0", "s1"},
		Tasks:     []string{"T0", "T1"},
		Scenarios: []string{"sc0", "sc1"},
		Qualities: []string{"full", "half"},
	})
	return fr
}

func TestDeadlineMissTriggersDumpAfterWindow(t *testing.T) {
	fr := newTestFlight(t, DefaultTriggers())
	b := NewFrameBuilder(fr.Recorder(), 0)

	commitFrames(b, 0, 5)
	fr.ObserveFrame(0, 4, true, 2.0, 9.0) // deadline miss arms the dump

	commitFrames(b, 5, afterFrames-1)
	if len(fr.Dumps()) != 0 {
		t.Fatal("dump written before the after-window elapsed")
	}
	commitFrames(b, 4+afterFrames, 1) // the last after-window frame
	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps after window, want 1", len(dumps))
	}
	d := dumps[0]
	if d.Reason != "deadline_miss" || d.Stream != 0 || d.Frame != 4 {
		t.Errorf("dump info wrong: %+v", d)
	}
	if d.Frames < 5+afterFrames {
		t.Errorf("dump recorded %d frames, want >= %d (5 before + %d after)", d.Frames, 5+afterFrames, afterFrames)
	}

	// The file must parse as a valid trace with the trigger instant inside.
	f, err := os.Open(filepath.Join(fr.Dir(), d.File))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	parsed, err := ReadDump(f)
	if err != nil {
		t.Fatalf("written dump does not parse: %v", err)
	}
	if parsed.Reason != "deadline_miss" {
		t.Errorf("parsed reason = %q", parsed.Reason)
	}
	found := false
	for _, in := range parsed.Instants {
		if strings.HasPrefix(in.Name, "trigger:") {
			found = true
		}
	}
	if !found {
		t.Error("dump carries no trigger instant")
	}
}

func TestRelErrTrigger(t *testing.T) {
	fr := newTestFlight(t, TriggerConfig{RelErr: 0.5})
	b := NewFrameBuilder(fr.Recorder(), 0)

	commitFrames(b, 0, 1)
	fr.ObserveFrame(0, 0, false, 10.0, 9.0) // rel err 0.11: below threshold
	commitFrames(b, 1, 2)
	if len(fr.Dumps()) != 0 {
		t.Fatal("sub-threshold prediction error triggered a dump")
	}
	fr.ObserveFrame(0, 3, false, 20.0, 8.0) // rel err 1.5: fires
	commitFrames(b, 3, afterFrames)
	dumps := fr.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "prediction_relerr" {
		t.Fatalf("dumps = %+v, want one prediction_relerr", dumps)
	}
	if dumps[0].Detail < 1.4 || dumps[0].Detail > 1.6 {
		t.Errorf("detail = %v, want the relative error 1.5", dumps[0].Detail)
	}
}

func TestTriggerCoalescingAndCooldown(t *testing.T) {
	fr := newTestFlight(t, DefaultTriggers())
	b := NewFrameBuilder(fr.Recorder(), 0)

	commitFrames(b, 0, 2)
	fr.ObservePanic(0, 1)
	fr.ObservePanic(0, 2) // while pending: coalesced
	fr.ObserveQuarantine(1, -1)
	commitFrames(b, 2, afterFrames)

	dumps := fr.Dumps()
	if len(dumps) != 1 {
		t.Fatalf("got %d dumps, want 1 (coalesced)", len(dumps))
	}
	if dumps[0].Reason != "task_panic" || dumps[0].Coalesced != 2 {
		t.Errorf("dump = %+v, want task_panic with 2 coalesced", dumps[0])
	}

	// Within the cooldown window nothing re-arms.
	fr.ObservePanic(0, 2+afterFrames)
	commitFrames(b, 2+afterFrames, afterFrames)
	if got := len(fr.Dumps()); got != 1 {
		t.Errorf("cooldown violated: %d dumps", got)
	}
}

func TestMaxDumpsCap(t *testing.T) {
	fr := newTestFlight(t, DefaultTriggers())
	b := NewFrameBuilder(fr.Recorder(), 0)

	// Each trigger lands past the previous one's cooldown.
	const step = cooldownFrames + 1
	for i := 0; i < maxDumps+2; i++ {
		fr.ObservePanic(0, i*step)
		commitFrames(b, i*step, step)
	}
	if got := len(fr.Dumps()); got != maxDumps {
		t.Errorf("maxDumps=%d but wrote %d dumps", maxDumps, got)
	}
}

func TestFlushWritesPendingDump(t *testing.T) {
	fr := newTestFlight(t, DefaultTriggers())
	b := NewFrameBuilder(fr.Recorder(), 0)

	commitFrames(b, 0, 3)
	fr.ObserveQuarantine(0, -1) // no frames follow: the window never elapses
	if len(fr.Dumps()) != 0 {
		t.Fatal("dump written before flush")
	}
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	dumps := fr.Dumps()
	if len(dumps) != 1 || dumps[0].Reason != "quarantine" {
		t.Fatalf("flush dumps = %+v", dumps)
	}
	// Flush with nothing pending is a clean no-op.
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(fr.Dumps()) != 1 {
		t.Error("idle flush wrote a dump")
	}
}

func TestDisarmedTriggersDoNotFire(t *testing.T) {
	fr := newTestFlight(t, TriggerConfig{}) // relative-error trigger disarmed
	b := NewFrameBuilder(fr.Recorder(), 0)
	commitFrames(b, 0, 2)
	fr.ObserveFrame(0, 0, false, 1, 100) // rel err 0.99, no deadline miss
	commitFrames(b, 2, afterFrames)
	if err := fr.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := len(fr.Dumps()); got != 0 {
		t.Errorf("disarmed recorder wrote %d dumps", got)
	}
}
