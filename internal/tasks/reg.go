package tasks

import (
	"math"

	"triplec/internal/frame"
	"triplec/internal/platform"
)

// Registrator implements REG: temporal registration aligning the marker
// couple of the current frame with the couple of the previous frame, based
// on a motion criterion computed from the temporal difference of patches
// around the markers (paper Section 3).
type Registrator struct {
	// MaxShift is the largest credible inter-frame couple displacement in
	// pixels; larger apparent motion fails the motion criterion.
	MaxShift float64
	// PatchRadius is the half-size of the verification patches.
	PatchRadius int
	// MaxResidual is the acceptable mean temporal difference (16-bit scale)
	// within the aligned patches.
	MaxResidual float64

	Params CostParams

	// taps (four tables) and patches (two patches and the sampler's ring)
	// are reused across Runs, so a Registrator is owned by one goroutine at a
	// time.
	taps    []frame.Tap
	patches []float64
}

// NewRegistrator returns a registrator with clinically plausible motion
// bounds for the synthetic cardiac amplitudes.
func NewRegistrator(p CostParams) *Registrator {
	return &Registrator{MaxShift: 25, PatchRadius: 16, MaxResidual: 9000, Params: p}
}

// Run registers cur against prev using the current and previous frames.
// The frames may be nil on the first frame; registration then fails and is
// free (there is nothing to align yet). When frames exist but a couple is
// missing, registration fails yet still performs (and is charged) its
// temporal-difference probing — the paper models REG as a 2 ms constant.
func (r *Registrator) Run(prevFrame, curFrame *frame.Frame, prevCouple, curCouple *Couple) (Registration, platform.Cost) {
	if prevFrame == nil || curFrame == nil {
		return Registration{}, r.Params.cost(0)
	}
	// The nominal constant cost of the stage: two 65x65 patch correlations
	// at full geometry, charged whether or not a couple was available,
	// because the motion criterion's temporal difference always runs.
	nominal := 2 * 65 * 65 * regPerPixel
	if prevCouple == nil || curCouple == nil {
		return Registration{}, r.Params.cost(nominal)
	}
	px, py := prevCouple.Mid()
	cx, cy := curCouple.Mid()
	reg := Registration{DX: cx - px, DY: cy - py}
	shift := math.Hypot(reg.DX, reg.DY)
	if shift <= r.MaxShift {
		// Motion criterion: temporal difference between the previous patch
		// translated by (DX, DY) and the current patch around each marker.
		// Both patches of a pair are sampled through tap tables of the
		// coordinates marker + offset, one table per axis and frame, and
		// differenced in row-major order.
		side := max(2*r.PatchRadius+1, 0)
		n := side * side
		r.taps = frame.GrowTaps(r.taps, 4*side)
		if cap(r.patches) < 2*n+4*side {
			r.patches = make([]float64, 2*n+4*side)
		}
		pxs, pys, cxs, cys := r.taps[:side], r.taps[side:2*side], r.taps[2*side:3*side], r.taps[3*side:4*side]
		a, b, ring := r.patches[:n], r.patches[n:2*n], r.patches[2*n:2*n+4*side]
		res := 0.0
		for _, pair := range [2][2]Marker{{prevCouple.A, curCouple.A}, {prevCouple.B, curCouple.B}} {
			pPrev, pCur := pair[0], pair[1]
			for i := 0; i < side; i++ {
				d := float64(i - r.PatchRadius)
				pxs[i], pys[i] = prevFrame.XTap(pPrev.X+d), prevFrame.YTap(pPrev.Y+d)
				cxs[i], cys[i] = curFrame.XTap(pCur.X+d), curFrame.YTap(pCur.Y+d)
			}
			frame.SampleRows(a, ring, prevFrame, pxs, pys)
			frame.SampleRows(b, ring, curFrame, cxs, cys)
			for i, v := range a {
				res += math.Abs(v - b[i])
			}
		}
		if n > 0 {
			reg.Error = res / float64(2*n)
			reg.OK = reg.Error <= r.MaxResidual
		}
	}
	return reg, r.Params.cost(nominal)
}

// ROIEstimator implements ROI EST: estimate the region of interest in the
// original image where the markers have been detected, padded so the stent
// and wire context fit.
type ROIEstimator struct {
	// PadFactor scales the couple spacing into the ROI padding.
	PadFactor float64
	// MinSize clamps the ROI to a useful minimum side length.
	MinSize int

	Params CostParams
}

// NewROIEstimator returns the estimator used by the pipeline.
func NewROIEstimator(p CostParams) *ROIEstimator {
	return &ROIEstimator{PadFactor: 0.8, MinSize: 32, Params: p}
}

// Run derives the ROI for couple within bounds. The fixed small workload
// matches the paper's constant 1 ms model.
func (e *ROIEstimator) Run(couple *Couple, bounds frame.Rect) (frame.Rect, platform.Cost) {
	// The paper models ROI EST as a 1 ms constant; the work is bookkeeping
	// proportional to nothing observable, so only the baseline plus a fixed
	// term is charged.
	cycles := e.Params.pixCost(4096, thresholdPerPixel)
	if couple == nil {
		return frame.Rect{}, e.Params.cost(cycles)
	}
	pad := int(e.PadFactor * couple.Spacing)
	if pad < e.MinSize/2 {
		pad = e.MinSize / 2
	}
	x0 := int(math.Min(couple.A.X, couple.B.X)) - pad
	y0 := int(math.Min(couple.A.Y, couple.B.Y)) - pad
	x1 := int(math.Max(couple.A.X, couple.B.X)) + pad + 1
	y1 := int(math.Max(couple.A.Y, couple.B.Y)) + pad + 1
	roi := frame.R(x0, y0, x1, y1).Intersect(bounds)
	return roi, e.Params.cost(cycles)
}
