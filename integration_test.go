package triplec

// End-to-end integration tests across the module's subsystems: the complete
// train → persist → load → manage → regulate flow a deploying user runs.

import (
	"bytes"
	"math"
	"testing"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/flowgraph"
	"triplec/internal/pipeline"
	"triplec/internal/qos"
	"triplec/internal/sched"
	"triplec/internal/tasks"
)

// TestEndToEndDeploymentFlow exercises the full production path: profile a
// training corpus, train Triple-C, serialize the models, load them in a
// fresh "deployment", run the managed pipeline, and verify the regulated
// output latency is stable.
func TestEndToEndDeploymentFlow(t *testing.T) {
	study := experiments.DefaultStudy()
	study.TrainSeqs = 3
	study.TrainFrames = 50

	// 1. Train.
	trained, err := study.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}

	// 2. Persist + reload (the deployment handoff).
	var blob bytes.Buffer
	if err := trained.Save(&blob); err != nil {
		t.Fatal(err)
	}
	deployed, err := core.Load(&blob)
	if err != nil {
		t.Fatal(err)
	}

	// 3. Manage a live run with the deployed models.
	mgr, err := sched.NewManager(deployed, study.Arch)
	if err != nil {
		t.Fatal(err)
	}
	mgr.Sticky = true
	eng, err := study.Engine()
	if err != nil {
		t.Fatal(err)
	}
	seq, err := study.Sequence(987654)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.RunManaged(eng, mgr, 80, experiments.Source(seq), study.FramePixels())
	if err != nil {
		t.Fatal(err)
	}

	// 4. The regulated output must be stable and the mappings valid.
	gap, err := qos.WorstVsAverage(res.Output)
	if err != nil {
		t.Fatal(err)
	}
	if gap > 0.45 {
		t.Fatalf("deployed-model run unstable: worst-vs-avg %.2f", gap)
	}
	for i, dec := range res.Decisions {
		if err := dec.Mapping.Validate(study.Arch.NumCPUs); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	// 5. Timelines of every frame must fit the machine.
	for i, rep := range res.Reports {
		tl, err := sched.BuildTimeline(rep, study.Arch.NumCPUs, 0)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if err := tl.Validate(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if math.Abs(tl.MakespanMs-rep.LatencyMs) > 1e-9 {
			t.Fatalf("frame %d: timeline mismatch", i)
		}
	}
}

// TestEndToEndThreeCsConsistency cross-checks the three C's against each
// other at the paper geometry: the predicted memory footprints must match
// Table 1, the bandwidth analysis must be consistent with the flow graph,
// and the computation predictions must be positive for every active task.
func TestEndToEndThreeCsConsistency(t *testing.T) {
	study := experiments.DefaultStudy()
	study.TrainSeqs = 3
	study.TrainFrames = 50
	p, err := study.TrainPredictor()
	if err != nil {
		t.Fatal(err)
	}
	p.ResetOnline()
	res, err := p.PredictResources(2048, 4096, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != flowgraph.WorstCase() {
		t.Fatalf("cold prediction scenario = %v", res.Scenario)
	}
	// Inter-task bandwidth must equal the flow graph's own total.
	want, err := res.Scenario.TotalMBs(2048, 30)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.InterMBs-want) > 1e-9 {
		t.Fatalf("inter-task bandwidth %.1f != flow graph %.1f", res.InterMBs, want)
	}
	// Memory must match Table 1 for RDG FULL and ENH.
	if res.MemoryKB[tasks.NameRDGFull] != 14336 {
		t.Fatalf("RDG FULL footprint = %d", res.MemoryKB[tasks.NameRDGFull])
	}
	if res.MemoryKB[tasks.NameENH] != 2048+8192+1024 {
		t.Fatalf("ENH footprint = %d", res.MemoryKB[tasks.NameENH])
	}
	// Computation predictions positive for the modeled active tasks.
	for ti, ms := range res.Ms {
		if res.Mask&(1<<uint(ti)) != 0 && ms <= 0 {
			t.Fatalf("task %d predicted %v ms", ti, ms)
		}
	}
}

// TestEndToEndRealStripingUnderManager runs the manager with actual
// goroutine striping enabled and verifies the outcome matches the modeled
// run frame by frame.
func TestEndToEndRealStripingUnderManager(t *testing.T) {
	study := experiments.DefaultStudy()
	study.TrainSeqs = 3
	study.TrainFrames = 40

	seq, err := study.Sequence(13579)
	if err != nil {
		t.Fatal(err)
	}
	src := experiments.Source(seq)

	runOnce := func(realStripes bool) []float64 {
		p, err := study.TrainPredictor()
		if err != nil {
			t.Fatal(err)
		}
		mgr, err := sched.NewManager(p, study.Arch)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := pipeline.New(pipeline.Config{
			Width: study.FrameW, Height: study.FrameH,
			MarkerSpacing: study.Spacing,
			Arch:          study.Arch,
			RealStriping:  realStripes,
		})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.RunManaged(eng, mgr, 40, src, study.FramePixels())
		if err != nil {
			t.Fatal(err)
		}
		return res.Processing
	}
	modeled := runOnce(false)
	real := runOnce(true)
	for i := range modeled {
		if math.Abs(modeled[i]-real[i]) > 1e-9 {
			t.Fatalf("frame %d: modeled %.3f vs real-striping %.3f", i, modeled[i], real[i])
		}
	}
}
