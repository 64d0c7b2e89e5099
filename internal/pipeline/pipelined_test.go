package pipeline

import (
	"errors"
	"reflect"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/tasks"
)

// goldenFrames pre-renders a shared, read-only frame slice so the serial
// and pipelined engines consume bit-identical inputs.
func goldenFrames(t *testing.T, seed uint64, n int) []*frame.Frame {
	t.Helper()
	s := testSeq(t, seed)
	out := make([]*frame.Frame, n)
	for i := range out {
		out[i], _ = s.Frame(i)
	}
	return out
}

// runSerialGolden processes the frames through the serial path with the
// serving layer's one-failed-frame-costs-one-frame contract.
func runSerialGolden(e *Engine, frames []*frame.Frame, m partition.Mapping) []FrameResult {
	out := make([]FrameResult, len(frames))
	for i, f := range frames {
		rep, err := e.Process(f, m)
		out[i] = FrameResult{Report: rep, Err: err}
	}
	return out
}

func sameFrame(a, b *frame.Frame) bool {
	if (a == nil) != (b == nil) {
		return false
	}
	if a == nil {
		return true
	}
	if a.Bounds != b.Bounds || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if a.Pix[i] != b.Pix[i] {
			return false
		}
	}
	return true
}

// assertSameResults compares every frame outcome bit-for-bit: reports,
// scenarios, task charges, output pixels, and fault attribution.
func assertSameResults(t *testing.T, serial, pipelined []FrameResult) {
	t.Helper()
	if len(serial) != len(pipelined) {
		t.Fatalf("result counts differ: %d vs %d", len(serial), len(pipelined))
	}
	for i := range serial {
		s, p := serial[i], pipelined[i]
		if (s.Err == nil) != (p.Err == nil) {
			t.Fatalf("frame %d: serial err %v, pipelined err %v", i, s.Err, p.Err)
		}
		if s.Err != nil {
			var st, pt *TaskError
			if !errors.As(s.Err, &st) || !errors.As(p.Err, &pt) {
				t.Fatalf("frame %d: non-TaskError failures %v / %v", i, s.Err, p.Err)
			}
			if st.Task != pt.Task || st.Frame != pt.Frame {
				t.Fatalf("frame %d: fault attribution differs: serial %s@%d, pipelined %s@%d",
					i, st.Task, st.Frame, pt.Task, pt.Frame)
			}
			continue
		}
		sr, pr := s.Report, p.Report
		if sr.Index != pr.Index || sr.Scenario != pr.Scenario {
			t.Fatalf("frame %d: index/scenario differ: %d %v vs %d %v",
				i, sr.Index, sr.Scenario, pr.Index, pr.Scenario)
		}
		if sr.LatencyMs != pr.LatencyMs || sr.AnalysisPixels != pr.AnalysisPixels ||
			sr.Candidates != pr.Candidates || sr.ROI != pr.ROI || sr.Quality != pr.Quality {
			t.Fatalf("frame %d: report scalars differ:\nserial    %+v\npipelined %+v", i, sr, pr)
		}
		if !reflect.DeepEqual(sr.Execs, pr.Execs) {
			t.Fatalf("frame %d: task execs differ:\nserial    %+v\npipelined %+v", i, sr.Execs, pr.Execs)
		}
		if !reflect.DeepEqual(sr.Registration, pr.Registration) ||
			!reflect.DeepEqual(sr.GuideWire, pr.GuideWire) ||
			!reflect.DeepEqual(sr.Couple, pr.Couple) ||
			!reflect.DeepEqual(sr.Suppressed, pr.Suppressed) {
			t.Fatalf("frame %d: task results differ", i)
		}
		if !sameFrame(sr.Output, pr.Output) {
			t.Fatalf("frame %d: output pixels differ", i)
		}
	}
}

// The pipelined executor must be bit-identical to serial execution on a
// clean run: same reports, same scenarios, same output pixels.
func TestPipelinedGoldenEqualsSerial(t *testing.T) {
	const n = 40
	frames := goldenFrames(t, 7, n)
	serialRes := runSerialGolden(newEngine(t), frames, partition.Serial())
	pipeRes, err := newEngine(t).RunPipelined(n, func(i int) *frame.Frame { return frames[i] }, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, serialRes, pipeRes)
}

// Bit-identity must also hold around faults injected mid-window, in both
// halves: a back-half panic with the next frame's front already in flight,
// and a front-half panic with the previous back in flight.
func TestPipelinedGoldenEqualsSerialWithFaults(t *testing.T) {
	const n = 40
	frames := goldenFrames(t, 11, n)
	// Deterministic per (task, frame) — the pipelined executor's documented
	// requirement. Frames 9/17 fault in the back half (ENH, ZOOM), frames
	// 13/25 in the front half (MKX, REG), frame 26 immediately after a
	// recovery.
	hook := func(task tasks.Name, frameIdx int) {
		switch {
		case frameIdx == 9 && task == tasks.NameENH,
			frameIdx == 17 && task == tasks.NameZOOM,
			frameIdx == 13 && task == tasks.NameMKXExt,
			frameIdx == 25 && task == tasks.NameREG,
			frameIdx == 26 && task == tasks.NameDetect:
			panic("injected")
		}
	}
	se := newEngine(t)
	se.SetTaskHook(hook)
	serialRes := runSerialGolden(se, frames, partition.Serial())
	failures := 0
	for _, r := range serialRes {
		if r.Err != nil {
			failures++
		}
	}
	if failures != 5 {
		t.Fatalf("serial run hit %d faults, want 5 (fixture drift)", failures)
	}

	pe := newEngine(t)
	pe.SetTaskHook(hook)
	pipeRes, err := pe.RunPipelined(n, func(i int) *frame.Frame { return frames[i] }, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	assertSameResults(t, serialRes, pipeRes)
}

// RunSequencePipelined keeps RunSequence's abort-on-error contract and its
// report shape on clean runs.
func TestRunSequencePipelinedMatchesRunSequence(t *testing.T) {
	const n = 25
	frames := goldenFrames(t, 19, n)
	src := func(i int) *frame.Frame { return frames[i] }
	want, err := newEngine(t).RunSequence(n, src, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	got, err := newEngine(t).RunSequencePipelined(n, src, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d reports, want %d", len(got), len(want))
	}
	for i := range want {
		if want[i].Scenario != got[i].Scenario || want[i].LatencyMs != got[i].LatencyMs {
			t.Fatalf("frame %d diverges", i)
		}
	}
}

func TestRunPipelinedValidation(t *testing.T) {
	e := newEngine(t)
	if _, err := e.RunPipelined(0, func(int) *frame.Frame { return nil }, partition.Serial()); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := e.RunPipelined(3, nil, partition.Serial()); err == nil {
		t.Fatal("nil source accepted")
	}
	frames := goldenFrames(t, 3, 2)
	if _, err := e.RunPipelined(3, func(i int) *frame.Frame {
		if i >= 2 {
			return nil
		}
		return frames[i]
	}, partition.Serial()); err == nil {
		t.Fatal("nil mid-run frame accepted")
	}
	// The engine survives and the span builder is restored for serial use.
	if _, err := e.Process(frames[0], partition.Serial()); err != nil {
		t.Fatalf("engine unusable after aborted pipelined run: %v", err)
	}
}

// Stress the overlap under -race: host stripes the two halves share, a gate, a
// stateless injected fault pattern, and a hook that hammers the fault
// boundary from both halves. Run with -race this is the pipelining data-race
// regression test.
func TestPipelinedFaultStress(t *testing.T) {
	const n = 60
	frames := goldenFrames(t, 23, n)
	cfg := testConfig()
	e := stripedEngine(t, cfg, 2)
	e.SetTaskHook(func(task tasks.Name, frameIdx int) {
		// Deterministic per (task, frame): fault scattered across both
		// stages, including consecutive frames (mid-window recoveries).
		if (frameIdx*31+int(tasks.IndexOf(task)))%17 == 5 {
			panic("stress")
		}
	})
	m := partition.Serial().With(tasks.NameRDGFull, 4).With(tasks.NameRDGROI, 2)
	results, err := e.RunPipelined(n, func(i int) *frame.Frame { return frames[i] }, m)
	if err != nil {
		t.Fatal(err)
	}
	processed, failed := 0, 0
	for i, r := range results {
		if r.Err != nil {
			failed++
			continue
		}
		processed++
		if r.Report.Index != i {
			t.Fatalf("result %d carries report index %d", i, r.Report.Index)
		}
	}
	if processed == 0 || failed == 0 {
		t.Fatalf("stress run degenerate: %d processed, %d failed", processed, failed)
	}
	// The same faults through the serial path must match — the stress
	// pattern is part of the golden contract too.
	se := stripedEngine(t, cfg, 2)
	se.SetTaskHook(func(task tasks.Name, frameIdx int) {
		if (frameIdx*31+int(tasks.IndexOf(task)))%17 == 5 {
			panic("stress")
		}
	})
	assertSameResults(t, runSerialGolden(se, frames, m), results)
}
