package pipeline

import (
	"errors"
	"fmt"

	"triplec/internal/frame"
	"triplec/internal/partition"
)

// This file is the multi-frame software-pipelined executor: frame k's back
// half (GW_EXT → ENH → ZOOM) overlaps frame k+1's front half (DETECT → …
// → ROI_EST) with a bounded window of two frames in flight — the double
// buffering the flow graph's inter-frame dependency structure admits (see
// internal/flowgraph/stages.go for why the cut sits after ROI_EST).
//
// Output equivalence: every report, scenario resolution, temporal-state
// update and fault outcome is bit-identical to processing the same frames
// serially through Process. The front half advances the analysis state
// (prevFrame/prevCouple/prevROI) and fronts are serialized; the back half
// owns the enhancer's temporal stack and backs are serialized; the frame
// buffers recycle through frame's pool exactly as in serial execution. On a
// panic in either half the window drains, the panicking frame fails with
// the same *TaskError a serial run produces, the temporal state resets, and
// the co-in-flight frame — whose front may have observed pre-reset state —
// is reprocessed serially from scratch under its original frame index.
// Equivalence around faults therefore requires the installed task hook to
// be deterministic per (task, frame) pair, which every fault injector in
// internal/fault is.

// FrameResult is one frame's outcome from the pipelined executor: exactly
// what a serial Process call for that frame would have returned.
type FrameResult struct {
	Report Report
	Err    error
}

// backOutcome carries a completed back half (and its recovered panic, if
// any) from the back goroutine to the coordinator.
type backOutcome struct {
	fx  *frameExec
	pan any
}

// RunPipelined processes frames[0..n) like RunSequence but software-
// pipelined, and returns every frame's outcome instead of aborting on the
// first failed frame (a failed frame costs that frame, not the run — the
// same contract the serving layer implements over Process). The engine's
// span builder, if any, is detached for the duration of the run: the
// builder is single-writer and the two halves would interleave task spans.
func (e *Engine) RunPipelined(n int, source func(int) *frame.Frame, m partition.Mapping) ([]FrameResult, error) {
	if n <= 0 {
		return nil, errors.New("pipeline: need at least one frame")
	}
	if source == nil {
		return nil, errors.New("pipeline: nil frame source")
	}
	spans := e.spans
	e.spans = nil
	e.lockHooks = true
	defer func() {
		e.spans = spans
		e.lockHooks = false
	}()

	results := make([]FrameResult, n)
	var inflight chan backOutcome // back half of the previous frame, if any
	inflightIdx := -1

	launchBack := func(fx *frameExec, slot int) {
		ch := make(chan backOutcome, 1)
		go func() {
			var pan any
			func() {
				defer func() { pan = recover() }()
				fx.back()
			}()
			ch <- backOutcome{fx: fx, pan: pan}
		}()
		inflight = ch
		inflightIdx = slot
	}

	// drain joins the in-flight back half and settles its frame's result.
	// It reports whether the back half panicked — in which case the engine's
	// temporal state has been reset and the caller's current frame (if any)
	// must be reprocessed from scratch.
	drain := func() bool {
		if inflight == nil {
			return false
		}
		out := <-inflight
		inflight = nil
		if out.pan != nil {
			var rep Report
			var err error
			e.recoverFrame(out.fx, out.pan, &rep, &err)
			results[inflightIdx] = FrameResult{Report: rep, Err: err}
			return true
		}
		results[inflightIdx] = FrameResult{Report: out.fx.commit()}
		return false
	}

	for i := 0; i < n; i++ {
		f := source(i)
		if f == nil {
			drain()
			return nil, fmt.Errorf("pipeline: frame %d: source returned nil frame", i)
		}
		fx := new(frameExec)
		if err := e.begin(fx, f, m); err != nil {
			drain()
			return nil, fmt.Errorf("pipeline: frame %d: %w", i, err)
		}
		// Run this frame's front half concurrently with the previous
		// frame's in-flight back half, capturing (not yet handling) any
		// panic: recovery resets shared temporal state, so it must wait
		// until the window has drained.
		var frontPan any
		func() {
			defer func() { frontPan = recover() }()
			fx.front()
		}()

		if drain() {
			// The previous frame's back half panicked. Serially, its
			// failure would have reset the temporal state *before* this
			// frame ran — but this frame's front already observed the
			// pre-reset state, so its work is discarded and the frame is
			// reprocessed from scratch (serial path, original index) against
			// the now-reset state. Any front panic above is moot: the
			// reprocess replays the frame, hook and all.
			results[i] = e.reprocess(fx)
			continue
		}
		if frontPan != nil {
			var rep Report
			var err error
			e.recoverFrame(fx, frontPan, &rep, &err)
			results[i] = FrameResult{Report: rep, Err: err}
			continue
		}
		launchBack(fx, i)
	}
	drain()
	return results, nil
}

// reprocess discards fx's (possibly partial) front work and re-runs its
// frame through the serial path from the engine's current post-recovery
// state, rewinding the frame counter so the report index and hook firings
// match what a serial run would have produced for this frame.
func (e *Engine) reprocess(fx *frameExec) FrameResult {
	e.frameIdx = fx.rep.Index
	rep, err := e.Process(fx.f, fx.m)
	return FrameResult{Report: rep, Err: err}
}

// RunSequencePipelined is RunPipelined with RunSequence's abort-on-error
// contract: it returns the reports of all n frames, or the first frame
// error. Fault-free workloads get the pipelined overlap with an unchanged
// call shape.
func (e *Engine) RunSequencePipelined(n int, source func(int) *frame.Frame, m partition.Mapping) ([]Report, error) {
	results, err := e.RunPipelined(n, source, m)
	if err != nil {
		return nil, err
	}
	reports := make([]Report, 0, n)
	for i, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("pipeline: frame %d: %w", i, r.Err)
		}
		reports = append(reports, r.Report)
	}
	return reports, nil
}
