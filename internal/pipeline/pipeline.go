// Package pipeline executes the feature-enhancement flow graph frame by
// frame on the machine model: it runs the real task implementations on the
// input frames, resolves the three data-dependent switches, charges every
// task's compute cycles and cache-overflow memory traffic to the platform,
// and reports the resulting effective latency under a given partitioning.
//
// Report ownership: every Report owns its records. Execs is carved from an
// append-only chunk of the engine, and Couple from one of the couples
// selector; a carved record is never handed out again, so a caller may keep
// or overwrite one report without touching another; Mapping is a value.
// Only values that point at nothing per-frame are carved from a chunk (a task
// name is a constant string): a kept record pins its whole chunk, so a
// chunked frame header would pin the pixels of every frame beside it.
// Output is a fresh frame each report.
package pipeline

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/partition"
	"triplec/internal/platform"
	"triplec/internal/span"
	"triplec/internal/tasks"
)

// Config parameterizes an Engine.
type Config struct {
	// Width, Height are the processed frame dimensions.
	Width, Height int
	// MarkerSpacing is the a-priori couple distance passed to CPLS SEL.
	MarkerSpacing float64
	// Arch is the platform the latencies are computed for.
	Arch platform.Arch
}

// TaskExec records one task execution within a frame.
type TaskExec struct {
	Task    tasks.Name
	Cost    platform.Cost // cycles + external-memory traffic
	Stripes int           // cores the task was striped over
	Ms      float64       // resulting execution time
}

// Report summarizes one processed frame.
type Report struct {
	Index        int
	Scenario     flowgraph.Scenario
	Mapping      partition.Mapping
	Execs        []TaskExec
	LatencyMs    float64 // sum of task times along the pipeline
	Couple       *tasks.Couple
	Registration tasks.Registration
	GuideWire    float64    // share of the marker-to-marker track with ridge evidence
	ROI          frame.Rect // ROI estimated this frame (empty if none)
	// AnalysisPixels is the size of the region the analysis tasks ran on
	// this frame: the previous frame's ROI when known, else the full frame.
	AnalysisPixels int
	Candidates     int          // marker candidates found
	Output         *frame.Frame // zoomed enhanced output (nil unless produced)
	// AccountingErrs collects non-fatal bookkeeping failures (e.g. the
	// intra-task bandwidth model rejecting the configured L2 size): the
	// frame still processes, but its memory-traffic charge is incomplete
	// and downstream consumers must not treat the cost as trustworthy.
	AccountingErrs []string
	// Quality is the degradation rung the frame was processed at.
	Quality Quality
	// Suppressed lists tasks withheld this frame by the quality level or an
	// open circuit (nil when nothing was shed).
	Suppressed []tasks.Name
}

// TaskMs returns the execution time of the named task within the report, or
// 0 if the task did not run.
func (r Report) TaskMs(name tasks.Name) float64 {
	for _, e := range r.Execs {
		if e.Task == name {
			return e.Ms
		}
	}
	return 0
}

// Ran reports whether the named task executed this frame.
func (r Report) Ran(name tasks.Name) bool {
	for _, e := range r.Execs {
		if e.Task == name {
			return true
		}
	}
	return false
}

// StageMs returns the report's summed task time per pipeline stage: the
// front half (everything through ROI estimation — the producers of the
// inter-frame state the next frame's analysis consumes) and the back half
// (guide-wire extraction, enhancement, zoom). frontMs+backMs == LatencyMs.
func (r Report) StageMs() (frontMs, backMs float64) {
	for _, e := range r.Execs {
		if flowgraph.StageOf(e.Task) == flowgraph.StageBack {
			backMs += e.Ms
		} else {
			frontMs += e.Ms
		}
	}
	return frontMs, backMs
}

// Engine holds the task instances and the inter-frame state (previous
// couple, estimated ROI, temporal-integration stack).
//
// Concurrency contract: an Engine is owned by exactly one goroutine at a
// time. Process and RunSequence mutate the inter-frame state, so concurrent
// calls on the same Engine are a data race; calls on *distinct* Engines are
// safe to run concurrently (the constructor shares no mutable state between
// instances). The multi-stream serving layer in internal/stream relies on
// this one-engine-per-goroutine discipline. RunPipelined (pipelined.go) is
// the one sanctioned exception: it overlaps the back half of frame k with
// the front half of frame k+1 on an internal goroutine, partitioning the
// engine's state between the halves and serializing the shared fault
// boundary (hook/gate) behind hookMu.
type Engine struct {
	cfg     Config
	machine *platform.Machine
	params  tasks.CostParams
	// intra[task][rdgOn] is flowgraph.IntraTaskKB at the modeled geometry —
	// a constant of the configuration, tabulated at construction: the
	// external-memory bytes charge adds to the task's cost, or the accounting
	// error text it reports instead.
	intra [tasks.NumNames][2]struct {
		memBytes float64
		err      string
	}

	detect *tasks.StructureDetector
	rdg    *tasks.RidgeDetector
	mkx    *tasks.MarkerExtractor
	cpls   *tasks.CouplesSelector
	reg    *tasks.Registrator
	roiEst *tasks.ROIEstimator
	gw     *tasks.GuideWireExtractor
	enh    *tasks.Enhancer
	zoom   *tasks.Zoomer

	frameIdx   int
	prevFrame  *frame.Frame
	prevCouple *tasks.Couple
	prevROI    frame.Rect

	observer func(Report)
	spans    *span.FrameBuilder // per-frame span staging; nil-safe when unset

	// fx is Process's execution record, reused frame to frame; the
	// pipelined executor allocates its own, one per frame in flight.
	fx frameExec
	// execs is the unused tail of the chunk commit carves Report.Execs
	// from; commit runs on the coordinating goroutine only.
	execs []TaskExec

	// Fault boundary (see guard.go / degrade.go).
	hook      func(task tasks.Name, frameIdx int)
	gate      TaskGate
	quality   Quality
	hookMu    sync.Mutex // serializes hook/gate calls across pipeline halves
	lockHooks bool       // true only inside RunPipelined
}

// frameExec is one frame's in-flight execution state, threaded through the
// begin → front → back → commit stages. The serial Process runs all four on
// one goroutine; the pipelined executor hands the frameExec from the front
// goroutine to the back goroutine (with a happens-before edge), so every
// field is only ever touched by one goroutine at a time. Keeping the
// per-frame state here — instead of on the Engine — is what lets two frames
// be in flight at once: the Engine retains only the temporal state (prev*,
// the enhancer stack, the frame counter), each with a single owning stage.
type frameExec struct {
	e *Engine
	f *frame.Frame
	m partition.Mapping

	rep      Report
	execs    [maxExecs]TaskExec // the frame's task records, staged for commit
	nExecs   int
	view     frame.Frame // the ROI view the analysis tasks run on
	bounds   frame.Rect
	rdgOn    bool
	roiKnown bool
	couple   *tasks.Couple
	regOK    bool
	newROI   frame.Rect
	inTask   tasks.Name // task currently executing, for panic attribution
}

// maxExecs bounds the tasks one frame runs: detect, one RDG variant, MKX,
// CPLS, REG, ROI, GW, ENH, ZOOM.
const maxExecs = 9

// execChunk is how many task records commit carves Report.Execs from before
// it allocates the next chunk (24 KB): about 70 frames at seven tasks each.
const execChunk = 512

// New builds an engine for the given configuration.
func New(cfg Config) (*Engine, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, errors.New("pipeline: invalid frame dimensions")
	}
	if cfg.MarkerSpacing <= 0 || math.IsNaN(cfg.MarkerSpacing) {
		return nil, errors.New("pipeline: marker spacing must be positive")
	}
	machine, err := platform.NewMachine(cfg.Arch)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	p := tasks.DefaultCostParams(cfg.Width * cfg.Height)
	e := &Engine{
		cfg:     cfg,
		machine: machine,
		params:  p,
		detect:  tasks.NewStructureDetector(p),
		rdg:     tasks.NewRidgeDetector(p),
		mkx:     tasks.NewMarkerExtractor(p),
		cpls:    tasks.NewCouplesSelector(cfg.MarkerSpacing, p),
		reg:     tasks.NewRegistrator(p),
		roiEst:  tasks.NewROIEstimator(p),
		gw:      tasks.NewGuideWireExtractor(p),
		// The paper's ENH works at full-frame granularity (Table 2b: 24 ms,
		// Table 1: 8 MB intermediate); the canvas therefore matches the
		// frame size.
		enh:  tasks.NewEnhancer(cfg.Width, cfg.Height, p),
		zoom: tasks.NewZoomer(cfg.Width, cfg.Height, p),
	}
	// Memory traffic is charged at the paper's 2,048 KB frame, so small
	// synthetic frames still exercise the full-geometry memory behaviour,
	// consistent with the PixelScale cost extrapolation.
	for ti, name := range tasks.AllNames() {
		for rdg, rdgOn := range [2]bool{false, true} {
			kb, err := flowgraph.IntraTaskKB(name, rdgOn, flowgraph.PaperFrameKB, cfg.Arch.L2.SizeBytes/1024)
			if err != nil {
				e.intra[ti][rdg].err = fmt.Sprintf("%s: bandwidth accounting: %v", name, err)
				continue
			}
			e.intra[ti][rdg].memBytes = float64(kb) * 1024
		}
	}
	return e, nil
}

// Machine exposes the engine's machine model.
func (e *Engine) Machine() *platform.Machine { return e.machine }

// Config returns the engine's effective configuration (defaults applied).
func (e *Engine) Config() Config { return e.cfg }

// SetObserver installs a per-frame telemetry hook invoked at the end of
// every successful Process with the frame's report, on the processing
// goroutine, before Process returns. The report is passed by value so the
// hook cannot retain engine state; the hook must not call back into the
// engine (same single-goroutine contract as Process). A nil fn removes the
// hook.
func (e *Engine) SetObserver(fn func(Report)) { e.observer = fn }

// SetHostStripes runs RDG's response pass and ENH's integration striped
// over h; nil runs them inline. Outputs and modeled charges do not change: a task is
// still charged at the mapping's stripes. The two pipelined halves share h
// safely, one striping while the other runs inline. Same single-goroutine
// contract as Process. A background job pending on the stripes it replaces
// is joined first.
func (e *Engine) SetHostStripes(h *parallel.HostStripes) {
	e.enh.Stripes.Wait()
	e.rdg.Stripes, e.enh.Stripes = h, h
}

// Params exposes the calibrated cost parameters.
func (e *Engine) Params() tasks.CostParams { return e.params }

// Reset clears the inter-frame state.
func (e *Engine) Reset() {
	e.frameIdx = 0
	e.prevFrame = nil
	e.prevCouple = nil
	e.prevROI = frame.Rect{}
	e.enh.Reset()
}

// charge computes a task's execution time under the mapping and appends the
// record to the frame's report.
func (e *Engine) charge(fx *frameExec, name tasks.Name, cost platform.Cost) {
	// Add the intra-task external-memory traffic from the cache analysis at
	// the modeled geometry.
	rdg := 0
	if fx.rdgOn {
		rdg = 1
	}
	ti := tasks.IndexOf(name)
	if intra := &e.intra[ti][rdg]; intra.err == "" {
		cost.MemBytes += intra.memBytes
	} else {
		fx.rep.AccountingErrs = append(fx.rep.AccountingErrs, intra.err)
	}
	k := fx.m.StripesAt(ti)
	ms := e.machine.StripedMs(cost, k)
	fx.execs[fx.nExecs] = TaskExec{Task: name, Cost: cost, Stripes: k, Ms: ms}
	fx.nExecs++
	fx.rep.LatencyMs += ms
	e.spans.EndTask(ms, k)
	// Reaching charge means the task completed: feed the breaker a success
	// (failures are recorded by recoverFrame before the charge is reached).
	if e.gate != nil && gatedTask(name) {
		e.recordGate(name, true)
	}
}

// begin validates the inputs, opens the frame's span, and initializes fx as
// the frame's execution state. The frame counter advances here — before the
// tasks run — so the pipelined executor can begin frame k+1 while frame k's
// back half is still in flight; a failed frame still consumes its index,
// exactly as the serial accounting always did.
func (e *Engine) begin(fx *frameExec, f *frame.Frame, m partition.Mapping) error {
	if f == nil || f.Pixels() == 0 {
		return errors.New("pipeline: empty frame")
	}
	if err := m.Validate(e.cfg.Arch.NumCPUs); err != nil {
		return err
	}
	e.spans.BeginFrame(e.frameIdx)
	*fx = frameExec{
		e:      e,
		f:      f,
		m:      m,
		bounds: f.Bounds,
		rep:    Report{Index: e.frameIdx, Mapping: m, Quality: e.quality},
	}
	e.frameIdx++
	return nil
}

// front runs the frame's front-stage tasks — DETECT through ROI_EST, the
// producers of every piece of inter-frame state the *next* frame's analysis
// consumes — and advances that state (prevFrame/prevCouple/prevROI) on
// return. Once front returns, the next frame's front may start even while
// this frame's back half is still running.
func (fx *frameExec) front() {
	e := fx.e
	f := fx.f

	// Switch 1: are dominant structures present (is RDG required)?
	e.enter(fx, tasks.NameDetect)
	rdgOn, dCost := e.detect.Run(f)
	fx.rdgOn = rdgOn
	e.charge(fx, tasks.NameDetect, dCost)

	// Granularity: ROI processing when the previous frame estimated one.
	fx.roiKnown = !e.prevROI.Empty()
	analysis := f
	if fx.roiKnown {
		fx.view = f.View(e.prevROI)
		analysis = &fx.view
	}
	fx.rep.AnalysisPixels = analysis.Pixels()

	// RDG variant per switch 1 and the granularity; the variant may be shed
	// by the quality level or an open circuit (MKX then runs unfiltered on
	// the analysis region, exactly the RDG-off path of the flow graph).
	var ridge *tasks.RidgeResult
	if rdgOn {
		name := tasks.NameRDGFull
		if fx.roiKnown {
			name = tasks.NameRDGROI
		}
		if e.allowTask(fx, name) {
			e.enter(fx, name)
			var rCost platform.Cost
			ridge, rCost = e.rdg.Run(analysis)
			e.charge(fx, name, rCost)
		}
	}

	// Marker extraction and couples selection.
	e.enter(fx, tasks.NameMKXExt)
	cands, mCost := e.mkx.Run(analysis, ridge)
	e.charge(fx, tasks.NameMKXExt, mCost)
	fx.rep.Candidates = len(cands)
	if ridge != nil {
		// The ridge mask only feeds MKX within this frame; recycle it.
		frame.Release(ridge.Mask)
		ridge.Mask = nil
	}

	e.enter(fx, tasks.NameCPLSSel)
	couple, cCost := e.cpls.Run(cands)
	e.charge(fx, tasks.NameCPLSSel, cCost)
	fx.rep.Couple = couple
	fx.couple = couple

	// Temporal registration against the previous frame (switch 3 input).
	e.enter(fx, tasks.NameREG)
	reg, gCost := e.reg.Run(e.prevFrame, f, e.prevCouple, couple)
	e.charge(fx, tasks.NameREG, gCost)
	fx.rep.Registration = reg
	fx.regOK = reg.OK

	if reg.OK {
		// ROI estimation stays in the front half even though it runs after
		// registration: the next frame's analysis granularity is this ROI.
		e.enter(fx, tasks.NameROIEst)
		var roiCost platform.Cost
		fx.newROI, roiCost = e.roiEst.Run(couple, fx.bounds)
		e.charge(fx, tasks.NameROIEst, roiCost)
		fx.rep.ROI = fx.newROI
	}

	// Advance the inter-frame analysis state: this is the registration
	// dependency edge the pipeline is bounded by, so it must happen at the
	// end of the front half, not after the back half.
	e.prevFrame = f
	if couple != nil {
		e.prevCouple = couple
	} else {
		e.prevCouple = nil
	}
	e.prevROI = fx.newROI
}

// back runs the frame's back-stage tasks — guide-wire extraction,
// enhancement, zoom — which feed nothing into the next frame's front half.
// The enhancer's temporal stack is back-stage state: consecutive backs are
// serialized, so its updates (including the reset on a failed registration)
// stay ordered even when this back overlaps the next frame's front.
func (fx *frameExec) back() {
	e := fx.e
	if !fx.regOK {
		// A broken registration invalidates the temporal stack.
		e.enh.Reset()
		return
	}
	if e.allowTask(fx, tasks.NameGWExt) {
		e.enter(fx, tasks.NameGWExt)
		var gwCost platform.Cost
		fx.rep.GuideWire, gwCost = e.gw.Run(fx.f, fx.couple)
		e.charge(fx, tasks.NameGWExt, gwCost)
	}

	e.enter(fx, tasks.NameENH)
	enhanced, eCost := e.enh.Run(fx.f, fx.couple)
	e.charge(fx, tasks.NameENH, eCost)

	if e.allowTask(fx, tasks.NameZOOM) {
		e.enter(fx, tasks.NameZOOM)
		out, zCost := e.zoom.Run(enhanced)
		e.charge(fx, tasks.NameZOOM, zCost)
		if out != nil && out == enhanced {
			// At the canvas size ZOOM is the identity: the report keeps
			// ENH's average and ENH writes its next one into a fresh frame.
			e.enh.HandOff()
		}
		fx.rep.Output = out
	}
}

// commit finalizes the frame's report and fires the observer. It runs on
// the coordinating goroutine in both the serial and the pipelined executor,
// which is what lets it carve the report's Execs from the engine's chunk.
func (fx *frameExec) commit() Report {
	e, n := fx.e, fx.nExecs
	if len(e.execs) < n {
		e.execs = make([]TaskExec, execChunk)
	}
	fx.rep.Execs = e.execs[:n:n]
	e.execs = e.execs[n:]
	copy(fx.rep.Execs, fx.execs[:n])
	fx.rep.Scenario = flowgraph.Scenario{RDGOn: fx.rdgOn, ROIKnown: fx.roiKnown, RegSuccess: fx.regOK}
	fx.inTask = ""
	if e.observer != nil {
		e.observer(fx.rep)
	}
	return fx.rep
}

// Process runs one frame through the flow graph under the given mapping and
// returns the per-frame report. The mapping must validate against the
// engine's architecture.
//
// A panic inside a task (or the installed task hook) does not escape: it is
// recovered into a *TaskError, the frame fails, and the engine resets its
// inter-frame state so the next frame starts from a clean temporal stack.
func (e *Engine) Process(f *frame.Frame, m partition.Mapping) (rep Report, err error) {
	fx := &e.fx
	if err := e.begin(fx, f, m); err != nil {
		return Report{}, err
	}
	defer func() {
		if r := recover(); r != nil {
			e.recoverFrame(fx, r, &rep, &err)
		}
		// The record outlives the frame: drop its frame, couple and report
		// so the engine does not keep them alive until the next one.
		*fx = frameExec{}
	}()
	fx.front()
	fx.back()
	return fx.commit(), nil
}

// RunSequence processes frames[0..n) from a frame source function under a
// fixed mapping and returns all reports.
func (e *Engine) RunSequence(n int, source func(int) *frame.Frame, m partition.Mapping) ([]Report, error) {
	if n <= 0 {
		return nil, errors.New("pipeline: need at least one frame")
	}
	if source == nil {
		return nil, errors.New("pipeline: nil frame source")
	}
	reports := make([]Report, 0, n)
	for i := 0; i < n; i++ {
		f := source(i)
		if f == nil {
			return nil, fmt.Errorf("pipeline: frame %d: source returned nil frame", i)
		}
		rep, err := e.Process(f, m)
		if err != nil {
			return nil, fmt.Errorf("pipeline: frame %d: %w", i, err)
		}
		reports = append(reports, rep)
	}
	return reports, nil
}

// Latencies extracts the per-frame latency series from reports.
func Latencies(reports []Report) []float64 {
	out := make([]float64, len(reports))
	for i, r := range reports {
		out[i] = r.LatencyMs
	}
	return out
}
