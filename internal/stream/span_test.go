package stream

import (
	"os"
	"path/filepath"
	"testing"

	"triplec/internal/span"
)

// TestTightBudgetProducesValidDump is the end-to-end flight-recorder test:
// serving real streams against an absurdly tight latency budget must fire
// the deadline-miss trigger and leave at least one parseable Perfetto dump
// whose task spans carry predictions and scenario labels.
func TestTightBudgetProducesValidDump(t *testing.T) {
	dir := t.TempDir()
	flight, err := span.NewFlightRecorder(dir, span.DefaultTriggers())
	if err != nil {
		t.Fatal(err)
	}

	s := testStudy()
	cfgs := []Config{
		mkStream(t, s, "s0", 11, 2), // 2 ms budget: every frame misses
		mkStream(t, s, "s1", 23, 2),
	}
	srv, err := NewServer(ServerConfig{Flight: flight}, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(30); err != nil {
		t.Fatal(err)
	}

	dumps := flight.Dumps()
	if len(dumps) == 0 {
		t.Fatal("tight budget produced no flight-recorder dump")
	}
	if err := flight.Err(); err != nil {
		t.Fatal(err)
	}
	for _, info := range dumps {
		if info.Reason != "deadline_miss" && info.Reason != "prediction_relerr" {
			t.Errorf("unexpected trigger reason %q", info.Reason)
		}
		f, err := os.Open(filepath.Join(dir, info.File))
		if err != nil {
			t.Fatal(err)
		}
		d, err := span.ReadDump(f)
		f.Close()
		if err != nil {
			t.Fatalf("dump %s does not parse: %v", info.File, err)
		}
		if d.Reason != info.Reason {
			t.Errorf("dump %s reason = %q, info says %q", info.File, d.Reason, info.Reason)
		}
		if len(d.Frames) == 0 {
			t.Fatalf("dump %s has no frame spans", info.File)
		}
		tasksSeen, predicted := 0, 0
		for _, fr := range d.Frames {
			if fr.Scenario == "" {
				t.Errorf("dump %s frame %d has no scenario label", info.File, fr.Frame)
			}
			if fr.BudgetMs != 2 {
				t.Errorf("dump %s frame %d budget = %v, want 2", info.File, fr.Frame, fr.BudgetMs)
			}
			for _, task := range fr.Tasks {
				tasksSeen++
				if task.PredictedMs > 0 {
					predicted++
				}
			}
		}
		if tasksSeen == 0 {
			t.Errorf("dump %s has no task spans", info.File)
		}
		if predicted == 0 {
			t.Errorf("dump %s: no task span carries a prediction", info.File)
		}
		if d.Processes[1] != "s0" || d.Processes[2] != "s1" {
			t.Errorf("dump %s process table = %v", info.File, d.Processes)
		}
	}
}

// TestFlightFlushSurfacesAtRunEnd checks that a dump armed too close to the
// end of the run (its after-window never elapses) is still flushed by
// Server.Run rather than silently dropped.
func TestFlightFlushSurfacesAtRunEnd(t *testing.T) {
	dir := t.TempDir()
	// Ten frames are fewer than the recorder's after-window, so the window
	// can never elapse in-run.
	flight, err := span.NewFlightRecorder(dir, span.DefaultTriggers())
	if err != nil {
		t.Fatal(err)
	}
	s := testStudy()
	srv, err := NewServer(ServerConfig{Flight: flight},
		[]Config{mkStream(t, s, "s0", 11, 2)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Run(10); err != nil {
		t.Fatal(err)
	}
	if got := len(flight.Dumps()); got != 1 {
		t.Fatalf("run-end flush wrote %d dumps, want 1", got)
	}
}

// TestServeWithoutFlightStaysQuiet pins the disabled path: no flight
// recorder configured means no span machinery runs and serving behaves
// exactly as before.
func TestServeWithoutFlightStaysQuiet(t *testing.T) {
	s := testStudy()
	srv, err := NewServer(ServerConfig{}, []Config{mkStream(t, s, "s0", 11, 0)})
	if err != nil {
		t.Fatal(err)
	}
	res, err := srv.Run(10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Streams[0].Stats.Processed == 0 {
		t.Fatal("no frames processed")
	}
}

// TestSpanMetaTables checks the label tables handed to the recorder cover
// every id the serving layer stamps.
func TestSpanMetaTables(t *testing.T) {
	s := testStudy()
	m := spanMeta([]Config{mkStream(t, s, "s0", 1, 0), mkStream(t, s, "", 2, 0)})
	if len(m.Streams) != 2 || m.Streams[0] != "s0" {
		t.Errorf("stream labels = %v", m.Streams)
	}
	if m.Streams[1] == "" {
		t.Error("unnamed stream got an empty label")
	}
	if len(m.Tasks) != 10 {
		t.Errorf("task table has %d entries, want 10", len(m.Tasks))
	}
	if len(m.Scenarios) != 8 {
		t.Errorf("scenario table has %d entries, want 8", len(m.Scenarios))
	}
	if len(m.Qualities) == 0 {
		t.Error("quality table empty")
	}
}
