package pipeline

import (
	"testing"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Failure injection: the pipeline must stay well-defined on pathological
// inputs — black frames, saturated frames, pure noise, tiny frames — never
// panicking, never producing negative latencies, and failing registration
// gracefully instead of fabricating couples.

func pathologicalFrames(t *testing.T) map[string]*frame.Frame {
	t.Helper()
	rng := stats.NewRNG(99)
	black := frame.New(128, 128)
	white := frame.New(128, 128)
	white.Fill(0xFFFF)
	noise := frame.New(128, 128)
	for i := range noise.Pix {
		noise.Pix[i] = uint16(rng.Uint64())
	}
	gradient := frame.New(128, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			gradient.Set(x, y, uint16(x*512))
		}
	}
	checker := frame.New(128, 128)
	for y := 0; y < 128; y++ {
		for x := 0; x < 128; x++ {
			if (x+y)%2 == 0 {
				checker.Set(x, y, 0xFFFF)
			}
		}
	}
	return map[string]*frame.Frame{
		"black":    black,
		"white":    white,
		"noise":    noise,
		"gradient": gradient,
		"checker":  checker,
	}
}

func TestPipelineSurvivesPathologicalFrames(t *testing.T) {
	for name, f := range pathologicalFrames(t) {
		t.Run(name, func(t *testing.T) {
			e, err := New(testConfig())
			if err != nil {
				t.Fatal(err)
			}
			// Feed the same pathological frame repeatedly: the pipeline must
			// remain stable across its own state updates.
			for i := 0; i < 5; i++ {
				rep, err := e.Process(f, partition.Serial())
				if err != nil {
					t.Fatalf("frame %d: %v", i, err)
				}
				if rep.LatencyMs <= 0 {
					t.Fatalf("frame %d: non-positive latency", i)
				}
				for _, ex := range rep.Execs {
					if ex.Ms < 0 || ex.Cost.Cycles < 0 {
						t.Fatalf("frame %d: negative cost for %s", i, ex.Task)
					}
				}
			}
		})
	}
}

func TestPipelineBlackFrameNoCouple(t *testing.T) {
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	black := frame.New(128, 128)
	rep, err := e.Process(black, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Couple != nil {
		t.Fatal("black frame must not yield a marker couple")
	}
	if rep.Registration.OK {
		t.Fatal("black frame must not register")
	}
	if rep.Output != nil {
		t.Fatal("black frame must not produce enhanced output")
	}
}

func TestPipelineNoiseFramesNeverEnhanceWrongly(t *testing.T) {
	// Pure-noise frames: couples may appear by chance but the motion
	// criterion must prevent sustained enhancement of garbage.
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	rng := stats.NewRNG(4242)
	enhanced := 0
	for i := 0; i < 20; i++ {
		f := frame.New(128, 128)
		for j := range f.Pix {
			f.Pix[j] = uint16(rng.Uint64())
		}
		rep, err := e.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rep.Output != nil {
			enhanced++
		}
	}
	if enhanced > 5 {
		t.Fatalf("noise frames produced %d enhanced outputs", enhanced)
	}
}

func TestPipelineAlternatingPathology(t *testing.T) {
	// Alternating between a real-looking frame and a black frame exercises
	// the state machine's recovery paths (ROI reset, enhancer reset).
	e, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	seq := testSeq(t, 5)
	black := frame.New(128, 128)
	for i := 0; i < 12; i++ {
		var f *frame.Frame
		if i%2 == 0 {
			f, _ = seq.Frame(i)
		} else {
			f = black
		}
		if _, err := e.Process(f, partition.Serial()); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
}

func TestPipelineTinyFrames(t *testing.T) {
	cfg := testConfig()
	cfg.Width, cfg.Height = 16, 16
	cfg.MarkerSpacing = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f := frame.New(16, 16)
	f.Fill(30000)
	for i := 0; i < 3; i++ {
		if _, err := e.Process(f, partition.Serial()); err != nil {
			t.Fatalf("tiny frame %d: %v", i, err)
		}
	}
}

func TestTasksSurvivePathologicalInputs(t *testing.T) {
	p := tasks.DefaultCostParams(128 * 128)
	rdg := tasks.NewRidgeDetector(p)
	mkx := tasks.NewMarkerExtractor(p)
	gw := tasks.NewGuideWireExtractor(p)
	for name, f := range pathologicalFrames(t) {
		t.Run(name, func(t *testing.T) {
			res, cost := rdg.Run(f)
			if cost.Cycles < 0 {
				t.Fatal("negative RDG cost")
			}
			cands, _ := mkx.Run(f, res)
			couple := &tasks.Couple{
				A: tasks.Marker{X: 10, Y: 10}, B: tasks.Marker{X: 50, Y: 50},
			}
			couple.Spacing = couple.A.Dist(couple.B)
			if cov, _ := gw.Run(f, couple); cov < 0 || cov > 1 {
				t.Fatalf("GW coverage out of range: %v", cov)
			}
			_ = cands
		})
	}
}
