package pipeline

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/partition"
	"triplec/internal/platform"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

// servedFrames returns n frames of a w x h stream synthesized the way the
// served studies are (experiments.Study.SynthConfig), marker spacing scaled
// from 36 px at 128 wide.
func servedFrames(t *testing.T, seed uint64, w, h, n int) (Config, []*frame.Frame) {
	t.Helper()
	spacing := 36 * float64(w) / 128
	cfg := synth.DefaultConfig(seed)
	cfg.Width, cfg.Height, cfg.MarkerSpacing = w, h, spacing
	cfg.NoiseSigma, cfg.QuantumGain, cfg.ClutterRate, cfg.DropoutEvery = 250, 0, 3, 23
	seq, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i], _ = seq.Frame(i)
	}
	return Config{Width: w, Height: h, MarkerSpacing: spacing, Arch: platform.Blackford()}, frames
}

// stripedEngine builds an engine for cfg whose RDG and ENH run over k host
// stripes (inline for k = 1); the stripes close with the test.
func stripedEngine(t *testing.T, cfg Config, k int) *Engine {
	t.Helper()
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if k > 1 {
		hs := parallel.NewHostStripes(k)
		t.Cleanup(hs.Close)
		e.SetHostStripes(hs)
	}
	return e
}

// TestHostStripeReportsBitIdentical is the differential test of host
// striping: Engine.Process over 1, 2 and 3 host stripes returns identical
// reports — output pixels, scenario, couple, ROI, Execs and every other
// field — frame for frame, on a 512x512 served stream that runs RDG FULL and
// RDG ROI, fails registrations and so resets the ENH stack, and on a 384x301
// one whose odd heights put stripe boundaries between canvas rows that share
// source rows in the resampling ring.
func TestHostStripeReportsBitIdentical(t *testing.T) {
	for _, g := range []struct{ w, h, n int }{{512, 512, stripeFrames512}, {384, 301, stripeFrames512 / 3}} {
		cfg, frames := servedFrames(t, 11, g.w, g.h, g.n)
		engines := []*Engine{stripedEngine(t, cfg, 1), stripedEngine(t, cfg, 2), stripedEngine(t, cfg, 3)}
		m := partition.Serial().With(tasks.NameRDGFull, 2).With(tasks.NameENH, 4)
		seen := map[string]int{}
		for i, f := range frames {
			want, err := engines[0].Process(f, m)
			if err != nil {
				t.Fatal(err)
			}
			for k, e := range engines[1:] {
				got, err := e.Process(f, m)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%dx%d frame %d, %d stripes: report differs from the inline one", g.w, g.h, i, k+2)
				}
			}
			switch {
			case want.Ran(tasks.NameRDGFull):
				seen["RDG FULL"]++
			case want.Ran(tasks.NameRDGROI):
				seen["RDG ROI"]++
			}
			if !want.Scenario.RegSuccess {
				seen["failed registration"]++
			} else if want.Ran(tasks.NameENH) {
				seen["ENH"]++
			}
		}
		for _, c := range []string{"RDG FULL", "RDG ROI", "failed registration", "ENH"} {
			if seen[c] == 0 {
				t.Fatalf("%dx%d: no frame covered %s (%v)", g.w, g.h, c, seen)
			}
		}
		t.Logf("%dx%d: %v", g.w, g.h, seen)
	}
}

// TestHostStripeProcessAllocs: striping allocates nothing per frame —
// Engine.Process over 2 host stripes makes as many allocations as inline,
// on 128x128 frames whose RDG FULL and ENH both split in two. Each frame
// joins the background job that allocates ENH's next average, so the count
// includes it.
func TestHostStripeProcessAllocs(t *testing.T) {
	frames := goldenFrames(t, 3, 24)
	allocs := func(k int) float64 {
		e := stripedEngine(t, testConfig(), k)
		for _, f := range frames {
			if _, err := e.Process(f, partition.Serial()); err != nil {
				t.Fatal(err)
			}
		}
		e.Reset()
		i := 0
		return testing.AllocsPerRun(len(frames)-1, func() {
			if _, err := e.Process(frames[i], partition.Serial()); err != nil {
				t.Fatal(err)
			}
			e.enh.Stripes.Wait()
			i++
		})
	}
	inline, striped := allocs(1), allocs(2)
	t.Logf("Engine.Process: %.0f allocs/frame inline, %.0f over 2 host stripes", inline, striped)
	if math.Abs(striped-inline) > racePoolMallocs {
		t.Fatalf("Engine.Process over 2 host stripes: %.0f allocs/frame, inline %.0f", striped, inline)
	}
}

// TestHostStripeHelperPanicFailsFrame: a panic inside a stripe that runs on
// a helper goroutine fails that frame with a *TaskError attributed to the
// striped task (RDG FULL, then ENH), carrying the helper's stack, and the
// stream goes on exactly as the inline engine does with the same fault.
// The fault truncates the frame's pixels just before the task, so only the
// bottom stripe reads past them.
func TestHostStripeHelperPanicFailsFrame(t *testing.T) {
	cfg, frames := servedFrames(t, 11, 512, 512, 12)
	ref := stripedEngine(t, cfg, 1)
	var rdgAt, enhAt, cutRow = -1, -1, 0
	for i, f := range frames {
		if enhAt >= 0 {
			frames = frames[:i+1] // and one frame after the faults
			break
		}
		rep, err := ref.Process(f, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		if rdgAt < 0 && rep.Ran(tasks.NameRDGFull) {
			rdgAt = i
		}
		if enhAt < 0 && i > rdgAt+1 && rdgAt >= 0 && rep.Ran(tasks.NameENH) {
			// ENH's canvas rows below the middle resample source rows below
			// the couple's midpoint.
			_, my := rep.Couple.Mid()
			enhAt, cutRow = i, int(my)+8
		}
	}
	if rdgAt < 0 || enhAt < 0 {
		t.Fatalf("setup: RDG FULL at %d, ENH at %d", rdgAt, enhAt)
	}
	faults := map[int]struct {
		task tasks.Name
		rows int
	}{rdgAt: {tasks.NameRDGFull, 400}, enhAt: {tasks.NameENH, cutRow}}
	run := func(k int) ([]Report, []error) {
		e := stripedEngine(t, cfg, k)
		e.SetTaskHook(func(task tasks.Name, frameIdx int) {
			if f, ok := faults[frameIdx]; ok && f.task == task {
				fr := frames[frameIdx]
				fr.Pix = fr.Pix[:f.rows*fr.Stride]
			}
		})
		reps, errs := make([]Report, len(frames)), make([]error, len(frames))
		for i, f := range frames {
			pix := f.Pix
			reps[i], errs[i] = e.Process(f, partition.Serial())
			f.Pix = pix
		}
		return reps, errs
	}
	wantReps, wantErrs := run(1)
	gotReps, gotErrs := run(2)
	for i := range frames {
		if f, ok := faults[i]; ok {
			var te *TaskError
			if !errors.As(gotErrs[i], &te) || te.Task != f.task {
				t.Fatalf("frame %d: error %v, want a %s TaskError", i, gotErrs[i], f.task)
			}
			if !strings.Contains(string(te.Stack), "(*HostStripes).helper") {
				t.Fatalf("frame %d: the %s panic was not raised on a helper:\n%s", i, f.task, te.Stack)
			}
			var want *TaskError
			if !errors.As(wantErrs[i], &want) || want.Task != f.task {
				t.Fatalf("frame %d: inline error %v, want a %s TaskError", i, wantErrs[i], f.task)
			}
			continue
		}
		if gotErrs[i] != nil || wantErrs[i] != nil {
			t.Fatalf("frame %d: errors %v (striped) and %v (inline)", i, gotErrs[i], wantErrs[i])
		}
		if !reflect.DeepEqual(gotReps[i], wantReps[i]) {
			t.Fatalf("frame %d: report after the faults differs from the inline one", i)
		}
	}
}

// outputDigest is an FNV-1a hash of a report's output pixels (0 for none).
func outputDigest(f *frame.Frame) uint64 {
	if f == nil {
		return 0
	}
	h := uint64(14695981039346656037)
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		for _, px := range f.Row(y) {
			h = (h ^ uint64(px)) * 1099511628211
		}
	}
	return h
}

// TestHostStripeOutputOwnership: a report's Output is the caller's for good.
// ZOOM hands ENH's average to the report instead of copying it, so a later
// frame that wrote into a handed-off buffer would change an earlier report.
// Over 1, 2 and 3 host stripes every output keeps the digest it had when its
// frame returned, across frames that shed ZOOM (QualityNoZoom: the buffer
// stays with ENH), failed registrations that reset ENH's stack and a fault
// injected at ZOOM; outputs equal the inline engine's, no two reports share
// a buffer, and the pipelined executor, whose halves share the stripes,
// leaves the same outputs as serial Process.
func TestHostStripeOutputOwnership(t *testing.T) {
	cfg, frames := servedFrames(t, 11, 128, 128, 100)
	const zoomFault = 30
	noZoom := func(i int) bool { return i >= 50 && i < 60 }
	// run returns each frame's output and its digest when the frame
	// returned (serial) or when the run did (pipelined).
	run := func(k int, pipelined, shed bool) ([]*frame.Frame, []uint64) {
		e := stripedEngine(t, cfg, k)
		e.SetTaskHook(func(task tasks.Name, frameIdx int) {
			if task == tasks.NameZOOM && frameIdx == zoomFault {
				panic("zoom fault")
			}
		})
		outs, sums := make([]*frame.Frame, len(frames)), make([]uint64, len(frames))
		if pipelined {
			results, err := e.RunPipelined(len(frames), func(i int) *frame.Frame { return frames[i] }, partition.Serial())
			if err != nil {
				t.Fatal(err)
			}
			for i, r := range results {
				outs[i], sums[i] = r.Report.Output, outputDigest(r.Report.Output)
			}
			return outs, sums
		}
		for i, f := range frames {
			e.SetQuality(QualityFull)
			if shed && noZoom(i) {
				e.SetQuality(QualityNoZoom)
			}
			rep, err := e.Process(f, partition.Serial())
			if (err != nil) != (i == zoomFault) {
				t.Fatalf("%d stripes, frame %d: error %v", k, i, err)
			}
			outs[i], sums[i] = rep.Output, outputDigest(rep.Output)
		}
		return outs, sums
	}
	check := func(name string, outs []*frame.Frame, sums, want []uint64) {
		t.Helper()
		owner := map[*frame.Frame]int{}
		for i, out := range outs {
			if got := outputDigest(out); got != sums[i] || got != want[i] {
				t.Fatalf("%s: frame %d output digest %x, %x when returned, want %x", name, i, got, sums[i], want[i])
			}
			if j, ok := owner[out]; ok && out != nil {
				t.Fatalf("%s: frames %d and %d share one output buffer", name, j, i)
			}
			owner[out] = i
		}
	}

	_, want := run(1, false, true)
	seen := map[string]int{}
	for i, sum := range want {
		switch {
		case i == zoomFault:
		case sum == 0 && noZoom(i):
			seen["shed ZOOM"]++
		case sum == 0:
			seen["no output"]++
		default:
			seen["output"]++
		}
	}
	t.Logf("frames: %v", seen)
	if seen["shed ZOOM"] == 0 || seen["no output"] == 0 || seen["output"] < 50 {
		t.Fatalf("setup: frames covered %v", seen)
	}
	_, wantFull := run(1, false, false)
	for _, k := range []int{1, 2, 3} {
		outs, sums := run(k, false, true)
		check(fmt.Sprintf("%d stripes", k), outs, sums, want)
		outs, sums = run(k, true, false)
		check(fmt.Sprintf("%d stripes, pipelined", k), outs, sums, wantFull)
	}
}
