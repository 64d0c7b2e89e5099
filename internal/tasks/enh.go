package tasks

import (
	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/platform"
)

// Enhancer implements ENH: enhancement of the stent by temporal integration
// of the registered image frames according to the balloon markers. Noise
// averages out over the integration window while the motion-compensated
// stent structure reinforces.
type Enhancer struct {
	// CanvasW, CanvasH is the fixed reference grid the registered ROIs are
	// resampled onto before integration.
	CanvasW, CanvasH int
	// Window is the maximum number of frames integrated (0 = unbounded).
	Window int

	Params CostParams
	// Stripes runs the integration striped over the host's cores; nil runs
	// it inline. The average is the same either way.
	Stripes *parallel.HostStripes

	acc *frame.Accumulator

	// avg and the tap tables are reused across Runs, so an Enhancer is owned
	// by one goroutine at a time and the frame returned by Run stays valid
	// only until the next Run, unless HandOff gives it away.
	avg    *frame.Frame
	xs, ys []frame.Tap
	newAvg func() // e.allocAvg, bound once: HandOff's background job
}

// NewEnhancer returns an enhancer with a canvas suited to the frame size.
func NewEnhancer(canvasW, canvasH int, p CostParams) *Enhancer {
	e := &Enhancer{CanvasW: canvasW, CanvasH: canvasH, Window: 0, Params: p,
		acc: frame.NewAccumulator(canvasW, canvasH)}
	e.newAvg = e.allocAvg
	return e
}

func (e *Enhancer) allocAvg() { e.avg = frame.New(e.CanvasW, e.CanvasH) }

// HandOff gives the frame the last Run returned to the caller, who owns it
// from now on: the next Run writes a fresh frame, allocated right away as a
// background job of Stripes (parallel.HostStripes.Go), so its zeroing and
// first-touch page faults run on a helper while the caller goes on.
func (e *Enhancer) HandOff() {
	e.avg = nil
	e.Stripes.Go(e.newAvg)
}

// Reset clears the temporal integration state (used when registration
// breaks and the stack must restart).
func (e *Enhancer) Reset() { e.acc.Reset() }

// Run resamples the registered ROI onto the canvas, adds it to the temporal
// stack and returns the running average — the enhanced view. The couple
// anchors the resampling so the markers always land on the same canvas
// positions (this is the motion compensation). The returned frame is a
// reused buffer: it stays valid until the next Run, unless HandOff gives it
// away.
func (e *Enhancer) Run(roi *frame.Frame, couple *Couple) (*frame.Frame, platform.Cost) {
	if roi == nil || roi.Pixels() == 0 || couple == nil {
		return nil, e.Params.cost(0)
	}
	// The stack restarts when the window is full, and at the latest before
	// the accumulator's 32-bit sums could wrap on an unbounded window.
	if n := e.acc.Frames(); (e.Window > 0 && n >= e.Window) || n >= frame.AccumulatorMaxFrames {
		e.Reset()
	}
	// Map the couple's midpoint to the canvas center with unit scale chosen
	// so the spacing occupies 40% of the canvas width.
	scale := 1.0
	if couple.Spacing > 0 {
		scale = 0.4 * float64(e.CanvasW) / couple.Spacing
	}
	mx, my := couple.Mid()
	// Canvas -> source mapping (pure translation + scale; rotation
	// compensation is out of scope for the reproduction). The resampled
	// canvas goes straight into the sums; it is never stored.
	e.xs, e.ys = frame.GrowTaps(e.xs, e.CanvasW), frame.GrowTaps(e.ys, e.CanvasH)
	for x := range e.xs {
		e.xs[x] = roi.XTap(mx + (float64(x)-float64(e.CanvasW)/2)/scale)
	}
	for y := range e.ys {
		e.ys[y] = roi.YTap(my + (float64(y)-float64(e.CanvasH)/2)/scale)
	}
	e.Stripes.Wait() // for the frame HandOff allocates
	e.avg = e.acc.AddResampledInto(e.avg, roi, e.xs, e.ys, e.Stripes)
	cycles := e.Params.pixCost(e.CanvasW*e.CanvasH, accumPerPixel)
	return e.avg, e.Params.cost(cycles)
}

// Zoomer implements ZOOM: present the output by zooming in on the ROI
// containing the stent.
type Zoomer struct {
	OutW, OutH int
	Params     CostParams
}

// NewZoomer returns a zoomer producing OutW x OutH output frames.
func NewZoomer(outW, outH int, p CostParams) *Zoomer {
	return &Zoomer{OutW: outW, OutH: outH, Params: p}
}

// Run bilinearly scales the enhanced view to the output window. At the
// view's own size that is the identity, and the output is enhanced itself:
// a caller that keeps it takes it from the Enhancer (HandOff) instead of
// copying it. The cost is charged either way.
func (z *Zoomer) Run(enhanced *frame.Frame) (*frame.Frame, platform.Cost) {
	if enhanced == nil || enhanced.Pixels() == 0 {
		return nil, z.Params.cost(0)
	}
	out := enhanced
	if enhanced.Width() != z.OutW || enhanced.Height() != z.OutH {
		out = frame.Resize(enhanced, z.OutW, z.OutH)
	}
	cycles := z.Params.pixCost(z.OutW*z.OutH, zoomPerPixel)
	return out, z.Params.cost(cycles)
}
