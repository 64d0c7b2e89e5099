package tasks

import (
	"math"

	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/platform"
)

// RidgeDetector implements the RDG task: a Hessian-based ridge filter that
// responds to elongated dark structures (vessels, guide wires) so they can
// be removed from the marker-candidate set. RDG FULL runs it on the whole
// frame; RDG ROI on the estimated region of interest.
//
// A RidgeDetector reuses internal scratch buffers across calls and is
// therefore owned by one goroutine at a time, like the pipeline Engine that
// embeds it (RunStriped's internal stripes are fine: they share one call).
// The returned RidgeResult frames are freshly taken from the shared frame
// pool on every call, so results stay valid across calls; callers that own
// a result may hand its frames back via frame.Release.
type RidgeDetector struct {
	// Sigma is the Gaussian pre-smoothing scale in pixels.
	Sigma float64
	// RelThreshold selects ridge pixels whose response exceeds this fraction
	// of the frame's maximum response.
	RelThreshold float64
	// Anisotropy is the minimum |l1|/(|l2|+1) ratio for a pixel to count as
	// part of an elongated structure rather than a blob.
	Anisotropy float64
	// DominanceFrac: if more than this fraction of pixels are ridge pixels,
	// the frame contains dominant structures.
	DominanceFrac float64

	Params CostParams

	vals []float64 // per-pixel response scratch, grown on demand
}

// NewRidgeDetector returns a detector with scales suited to the synthetic
// vessel widths.
func NewRidgeDetector(p CostParams) *RidgeDetector {
	return &RidgeDetector{
		Sigma:         1.2,
		RelThreshold:  0.30,
		Anisotropy:    1.8,
		DominanceFrac: 0.01,
		Params:        p,
	}
}

// scratch returns the detector's response buffer resized to n values.
func (r *RidgeDetector) scratch(n int) []float64 {
	if cap(r.vals) < n {
		r.vals = make([]float64, n)
	}
	return r.vals[:n]
}

// Run applies the ridge filter to in (which may be a SubFrame for the ROI
// variant) and returns the response, mask and the cycle cost of the work
// actually performed.
func (r *RidgeDetector) Run(in *frame.Frame) (*RidgeResult, platform.Cost) {
	return r.RunStripedOn(nil, in, 1)
}

// RunStriped executes the ridge filter with its pixel loops striped over k
// goroutines — the real shared-memory counterpart of the data-parallel
// partitioning the runtime manager plans ("the tasks have a streaming
// nature", paper §6). The result and the reported cost are identical to
// Run; only the host wall-clock time changes.
func (r *RidgeDetector) RunStriped(in *frame.Frame, k int) (*RidgeResult, platform.Cost) {
	return r.RunStripedOn(nil, in, k)
}

// RunStripedOn is RunStriped with the stripes executed on a shared worker
// pool (parallel.StripesOn) instead of fresh goroutines, so concurrent
// streams batch their same-task stripes through one dispatch and share the
// host's fixed concurrency. A nil pool behaves exactly like RunStriped, and
// k <= 1 runs both passes inline without a closure or per-stripe slice.
func (r *RidgeDetector) RunStripedOn(pool *parallel.Pool, in *frame.Frame, k int) (*RidgeResult, platform.Cost) {
	pixels := in.Pixels()
	if pixels == 0 {
		return &RidgeResult{Response: frame.New(0, 0), Mask: frame.New(0, 0)},
			r.Params.cost(0)
	}
	width, height := in.Width(), in.Height()
	smoothed := frame.BorrowUninit(width, height)
	smoothed = frame.GaussianBlurIntoOn(pool, smoothed, in, r.Sigma, k)
	defer frame.Release(smoothed)

	vals := r.scratch(pixels)
	maxResp := 0.0
	if k <= 1 {
		maxResp = r.responseRows(vals, smoothed, 0, height)
	} else {
		stripeMax := make([]float64, k)
		parallel.StripesOn(pool, height, k, func(stripe, lo, hi int) {
			stripeMax[stripe] = r.responseRows(vals, smoothed, lo, hi)
		})
		for _, m := range stripeMax {
			if m > maxResp {
				maxResp = m
			}
		}
	}

	result := &RidgeResult{Response: frame.Borrow(width, height), Mask: frame.Borrow(width, height)}
	result.Response.Bounds, result.Mask.Bounds = in.Bounds, in.Bounds
	if maxResp > 0 {
		if k <= 1 {
			result.RidgePixels = r.maskRows(result, vals, maxResp, 0, height)
		} else {
			stripeCount := make([]int, k)
			parallel.StripesOn(pool, height, k, func(stripe, lo, hi int) {
				stripeCount[stripe] = r.maskRows(result, vals, maxResp, lo, hi)
			})
			for _, n := range stripeCount {
				result.RidgePixels += n
			}
		}
	}
	result.Dominant = float64(result.RidgePixels) >= r.DominanceFrac*float64(pixels)

	// Cost: blur + Hessian over all pixels, plus the data-dependent
	// thinning/linking pass proportional to the ridge pixels found.
	cycles := r.Params.pixCost(pixels, r.Params.BlurPerPixel) +
		r.Params.pixCost(pixels, r.Params.HessianPerPixel) +
		r.Params.pixCost(result.RidgePixels, r.Params.NMSPerRidgePixel)
	return result, r.Params.cost(cycles)
}

// response is the ridge measure of one pixel: for dark lines on a bright
// background the principal Hessian eigenvalue across the line is large and
// positive, while along the line it stays near zero, so the response is l1
// gated by anisotropy.
func (r *RidgeDetector) response(h frame.Hessian) float64 {
	l1, l2 := h.Eigenvalues()
	if l1 > 0 && absf(l1) >= r.Anisotropy*(absf(l2)+1) {
		return l1
	}
	return 0
}

// responseRows writes the ridge response of rows [lo, hi) of smoothed
// (counted from its first row) into vals and returns their maximum.
// Interior pixels read three row slices with HessianAt's interior
// expressions; the one-pixel border keeps HessianAt's replicate clamps.
func (r *RidgeDetector) responseRows(vals []float64, smoothed *frame.Frame, lo, hi int) float64 {
	b := smoothed.Bounds
	width, height := b.Width(), b.Height()
	maxResp := 0.0
	for yy := lo; yy < hi; yy++ {
		out := vals[yy*width : (yy+1)*width]
		if yy == 0 || yy == height-1 || width < 3 {
			for xx := range out {
				out[xx] = r.response(frame.HessianAt(smoothed, b.X0+xx, b.Y0+yy))
			}
		} else {
			up := smoothed.Pix[(yy-1)*smoothed.Stride:][:width]
			mid := smoothed.Pix[yy*smoothed.Stride:][:width]
			down := smoothed.Pix[(yy+1)*smoothed.Stride:][:width]
			out[0] = r.response(frame.HessianAt(smoothed, b.X0, b.Y0+yy))
			for xx := 1; xx < width-1; xx++ {
				c := float64(mid[xx])
				out[xx] = r.response(frame.Hessian{
					XX: float64(mid[xx+1]) - 2*c + float64(mid[xx-1]),
					YY: float64(down[xx]) - 2*c + float64(up[xx]),
					XY: (float64(down[xx+1]) - float64(down[xx-1]) -
						float64(up[xx+1]) + float64(up[xx-1])) / 4,
				})
			}
			out[width-1] = r.response(frame.HessianAt(smoothed, b.X1-1, b.Y0+yy))
		}
		for _, v := range out {
			if v > maxResp {
				maxResp = v
			}
		}
	}
	return maxResp
}

// maskRows scales rows [lo, hi) of vals into res.Response, marks the pixels
// at or above the relative threshold in res.Mask and returns how many it
// marked. Both frames start zeroed and compact.
func (r *RidgeDetector) maskRows(res *RidgeResult, vals []float64, maxResp float64, lo, hi int) int {
	width := res.Mask.Width()
	thr := r.RelThreshold * maxResp
	scale := 65535.0 / maxResp
	n := 0
	for i := lo * width; i < hi*width; i++ {
		v := vals[i]
		if v <= 0 {
			continue
		}
		res.Response.Pix[i] = uint16(v * scale)
		if v >= thr {
			res.Mask.Pix[i] = 0xFFFF
			n++
		}
	}
	return n
}

// StructureDetector implements the cheap pre-scan behind the paper's first
// switch: decide whether dominant elongated structures are present, so that
// the expensive RDG filter can be skipped on clean frames. It measures mean
// gradient energy on a 4x-downsampled image; because structure density per
// downsampled pixel scales inversely with frame size, the decision
// statistic is the energy normalized by the frame's side length, making the
// threshold resolution independent.
type StructureDetector struct {
	// EnergyThreshold is the normalized gradient energy
	// (mean |grad| x sqrt(frame pixels)) above which the frame is
	// considered to contain dominant structures.
	EnergyThreshold float64
	Params          CostParams
}

// NewStructureDetector returns a detector tuned for the synthetic sequences.
func NewStructureDetector(p CostParams) *StructureDetector {
	return &StructureDetector{EnergyThreshold: 205000, Params: p}
}

// Run returns true when RDG should be activated.
func (d *StructureDetector) Run(in *frame.Frame) (bool, platform.Cost) {
	w, h := in.Width()/4, in.Height()/4
	if w < 2 || h < 2 {
		return false, d.Params.cost(0)
	}
	small := frame.ResizeInto(frame.BorrowUninit(w, h), in, w, h)
	energy := 0.0
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			gx, gy := frame.Gradient(small, x, y)
			energy += absf(gx) + absf(gy)
		}
	}
	frame.Release(small)
	energy /= float64(w * h)
	norm := energy * math.Sqrt(float64(in.Pixels()))
	cycles := d.Params.pixCost(w*h, d.Params.DetectPerPixel)
	return norm >= d.EnergyThreshold, d.Params.cost(cycles)
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
