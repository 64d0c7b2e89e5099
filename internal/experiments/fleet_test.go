package experiments

import (
	"fmt"
	"testing"

	"triplec/internal/fault"
	"triplec/internal/partition"
)

// TestServedStreamRecipe: two streams of one study share nothing mutable —
// distinct predictors, managers and engines — both managers are sticky, the
// shared corpus is the study's, and stream i plays Sequence(seed + i·1013).
func TestServedStreamRecipe(t *testing.T) {
	study := ServingStudy(2)
	const seed = 77
	a, err := study.ServedStream(seed, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := study.ServedStream(seed, 1)
	if err != nil {
		t.Fatal(err)
	}
	if a.Engine == b.Engine || a.Manager == b.Manager || a.Manager.Predictor() == b.Manager.Predictor() {
		t.Fatal("two served streams share an engine, manager or predictor")
	}
	if !a.Manager.Sticky || !b.Manager.Sticky {
		t.Fatal("served managers must be sticky")
	}
	if len(a.Corpus) != study.TrainSeqs || len(a.Corpus[0]) != study.TrainFrames {
		t.Fatalf("corpus is %d sequences, want the study's %d x %d", len(a.Corpus), study.TrainSeqs, study.TrainFrames)
	}
	for i, st := range []*Served{a, b} {
		seq, err := study.Sequence(seed + uint64(i)*1013)
		if err != nil {
			t.Fatal(err)
		}
		for _, fi := range []int{0, 7} {
			want, _ := seq.Frame(fi)
			if !st.Source(fi).Equal(want) {
				t.Fatalf("stream %d frame %d is not Sequence(seed + %d*1013)'s", i, fi, i)
			}
		}
	}
	if a.Source(3).Equal(b.Source(3)) {
		t.Fatal("streams 0 and 1 play the same sequence")
	}
}

// TestFleetRun drives the round-robin fleet under a fault plan of panics and
// spikes: every frame reaches the callback exactly once in round-robin
// order, a recovered panic is a failed frame that leaves the stream's
// initialization pending, the first processed frame of a stream is serial
// and sets its budget, and spikes are overlaid only inside the gate.
func TestFleetRun(t *testing.T) {
	fl, err := NewFleet(FleetConfig{
		Deployment: Deployment{
			Streams: 2, Frames: 40, Seed: 11, Train: 2, Faulted: 2,
			Fault: &fault.Config{Seed: 5, Defaults: fault.Probs{Panic: 0.03, Spike: 0.3}, SpikeMs: 10},
		},
		SpikeFrom: 10, SpikeTo: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range fl.Streams {
		if st.Hook == nil || st.Name != fmt.Sprintf("faulted%d", i) {
			t.Fatalf("stream %d (%q) of a fully faulted fleet carries no fault hook", i, st.Name)
		}
	}
	calls, failed, spiked := 0, 0, 0
	processed := make([]int, 2)
	err = fl.Run(func(fr *FleetFrame) {
		if fr.Frame != calls/2 || fr.Stream != calls%2 {
			t.Fatalf("call %d is stream %d frame %d, want round-robin order", calls, fr.Stream, fr.Frame)
		}
		calls++
		if fr.Failed {
			failed++
			if fr.LatencyMs != 0 || fr.Obs.Mask != 0 {
				t.Fatalf("failed frame carries data: %+v", fr)
			}
			return
		}
		mgr := fl.Streams[fr.Stream].Manager
		if processed[fr.Stream] == 0 {
			if len(fr.Decision.Mapping) != len(partition.Serial()) || fr.Decision.PredictedMs != 0 {
				t.Fatalf("stream %d: first processed frame was planned: %+v", fr.Stream, fr.Decision)
			}
			if mgr.BudgetMs <= 0 {
				t.Fatalf("stream %d: budget not initialized from the first processed frame", fr.Stream)
			}
		}
		processed[fr.Stream]++
		if fr.BudgetMs != mgr.BudgetMs || fr.Missed != (fr.LatencyMs > fr.BudgetMs) {
			t.Fatalf("frame verdict inconsistent: %+v (manager budget %v)", fr, mgr.BudgetMs)
		}
		if fr.Obs.Mask == 0 || fr.Obs.TotalMs <= 0 {
			t.Fatalf("served frame without a dense observation: %+v", fr.Obs)
		}
		if fr.SpikeMs > 0 {
			spiked++
			if fr.Frame < 10 || fr.Frame >= 20 {
				t.Fatalf("spike overlaid on frame %d, outside the [10, 20) gate", fr.Frame)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != 80 || processed[0]+processed[1]+failed != 80 {
		t.Fatalf("%d callbacks, %v processed + %d failed, want 80", calls, processed, failed)
	}
	if failed == 0 || spiked == 0 {
		t.Fatalf("plan fired %d panics and %d in-gate spikes; the test needs both", failed, spiked)
	}
}
