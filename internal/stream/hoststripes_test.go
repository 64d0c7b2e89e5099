package stream

import (
	"runtime"
	"testing"
	"time"

	"triplec/internal/tasks"
)

// TestHostStripeCount: each engine stripes over the Ps that the frames in
// flight leave idle — a lone stream on two Ps gets two stripes, while two
// streams on two Ps and one stream on one P (the 128x2 and 32x1 benchmark
// shapes) run inline.
func TestHostStripeCount(t *testing.T) {
	for _, c := range []struct{ procs, streams, workers, want int }{
		{2, 1, 1, 2}, {2, 2, 2, 1}, {1, 1, 1, 1}, {2, 1, 0, 2}, {2, 2, 0, 1},
		{8, 2, 2, 4}, {8, 4, 1, 8}, {8, 16, 0, 1}, {3, 2, 2, 1},
	} {
		if got := hostStripes(c.procs, c.streams, c.workers); got != c.want {
			t.Errorf("hostStripes(procs %d, streams %d, workers %d) = %d, want %d", c.procs, c.streams, c.workers, got, c.want)
		}
	}
}

// TestHostStripeGoroutinesReturnToBaseline: the helpers each stream's
// engine stripes over stop when Server.Run returns, those of an engine
// rebuilt after a stall included (the poisoned engine's are closed at the
// rebuild and go once its leaked frame ends).
func TestHostStripeGoroutinesReturnToBaseline(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	s := testStudy()
	sc := mkStream(t, s, "stuck", 61, 0)
	hang := time.Duration(300*raceScale) * time.Millisecond
	sc.Engine.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if frameIdx == 3 && task == tasks.NameDetect {
			time.Sleep(hang)
		}
	})
	sc = withRebuild(t, sc, nil)
	srv, err := NewServer(ServerConfig{
		Supervise: true, WatchdogMs: 20 * raceScale, StallMs: 60 * raceScale, HostWorkers: 4,
	}, []Config{sc})
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	out, err := srv.Run(15)
	if err != nil {
		t.Fatal(err)
	}
	if st := out.Streams[0].Stats; st.Restarts != 1 || st.Processed != 14 {
		t.Fatalf("restarts %d, processed %d: want one rebuild and 14 frames", st.Restarts, st.Processed)
	}
	for deadline := time.Now().Add(hang + 5*time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before", runtime.NumGoroutine(), base)
		}
	}
}
