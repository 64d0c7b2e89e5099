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
// The returned RidgeResult mask is freshly taken from the shared frame pool
// on every call, so results stay valid across calls; callers that own a
// result may hand its mask back via frame.Release.
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
// variant) and returns the ridge mask and the cycle cost of the work actually
// performed.
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
		return &RidgeResult{Mask: frame.New(0, 0)}, r.Params.cost(0)
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

	result := &RidgeResult{Mask: frame.Borrow(width, height)}
	result.Mask.Bounds = in.Bounds
	if maxResp > 0 {
		if k <= 1 {
			result.RidgePixels = r.maskRows(result.Mask, vals, maxResp, 0, height)
		} else {
			stripeCount := make([]int, k)
			parallel.StripesOn(pool, height, k, func(stripe, lo, hi int) {
				stripeCount[stripe] = r.maskRows(result.Mask, vals, maxResp, lo, hi)
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
// gated by anisotropy. responseRows calls it on the one-pixel border only.
func (r *RidgeDetector) response(h frame.Hessian) float64 {
	l1, l2 := h.Eigenvalues()
	if l1 > 0 && absf(l1) >= r.Anisotropy*(absf(l2)+1) {
		return l1
	}
	return 0
}

// responseRows writes the ridge response of rows [lo, hi) of smoothed
// (counted from its first row) into vals and returns their maximum. The
// one-pixel border goes through HessianAt's replicate clamps and response.
//
// Interior pixels evaluate the same expressions in place and take no branch
// on the pixel: in blurred noise the sign of the trace is a coin toss, and a
// mispredicted early return costs what the square root does. They keep
// l1 = tr/2+disc where the sign bits of both tr and l1-gate are clear and 0
// elsewhere, which is response bit for bit for any Anisotropy but NaN:
//   - tr < 0: the eigenvalue of larger magnitude is tr/2-disc, negative by
//     at least the integer |tr|, far above rounding, so response returns 0
//     whatever the anisotropy. At tr == 0 the two tie and Eigenvalues picks
//     the positive one, hence the sign of tr and not tr <= 0.
//   - tr >= 0: tr/2+disc >= |tr/2-disc| survives rounding, which is
//     monotone, so it is Eigenvalues' l1; l1-gate has its sign bit clear
//     exactly when l1 >= gate, distinct floats never differing by a rounded
//     zero; and keeping an l1 of 0 returns the 0 that l1 > 0 guards.
func (r *RidgeDetector) responseRows(vals []float64, smoothed *frame.Frame, lo, hi int) float64 {
	b := smoothed.Bounds
	width, height := b.Width(), b.Height()
	border := func(xx, yy int) float64 {
		return r.response(frame.HessianAt(smoothed, b.X0+xx, b.Y0+yy))
	}
	maxResp := 0.0
	for yy := lo; yy < hi; yy++ {
		out := vals[yy*width : (yy+1)*width]
		if yy == 0 || yy == height-1 || width < 3 {
			for xx := range out {
				out[xx] = border(xx, yy)
				maxResp = max(maxResp, out[xx])
			}
			continue
		}
		up := smoothed.Pix[(yy-1)*smoothed.Stride:][:width]
		mid := smoothed.Pix[yy*smoothed.Stride:][:width]
		down := smoothed.Pix[(yy+1)*smoothed.Stride:][:width]
		out[0], out[width-1] = border(0, yy), border(width-1, yy)
		maxResp = max(maxResp, out[0], out[width-1])
		for xx := 1; xx < width-1; xx++ {
			c := float64(mid[xx])
			hxx := float64(mid[xx+1]) - 2*c + float64(mid[xx-1])
			hyy := float64(down[xx]) - 2*c + float64(up[xx])
			hxy := (float64(down[xx+1]) - float64(down[xx-1]) -
				float64(up[xx+1]) + float64(up[xx-1])) / 4
			tr := hxx + hyy
			d := tr*tr/4 - (hxx*hyy - hxy*hxy)
			if d <= 0 {
				d = 0
			}
			disc := math.Sqrt(d)
			l1 := tr/2 + disc
			gate := r.Anisotropy * (absf(tr/2-disc) + 1)
			keep := ^(math.Float64bits(tr) | math.Float64bits(l1-gate)) >> 63
			v := math.Float64frombits(math.Float64bits(l1) & -keep)
			if v > maxResp {
				maxResp = v
			}
			out[xx] = v
		}
	}
	return maxResp
}

// maskRows marks the pixels of rows [lo, hi) of vals at or above the
// relative threshold in mask, which starts zeroed and compact, and returns
// how many it marked. The threshold is tested first: a few percent of the
// pixels pass it, a branch that predicts, where a third are positive.
func (r *RidgeDetector) maskRows(mask *frame.Frame, vals []float64, maxResp float64, lo, hi int) int {
	width := mask.Width()
	thr := r.RelThreshold * maxResp
	n := 0
	for i := lo * width; i < hi*width; i++ {
		if v := vals[i]; v >= thr && v > 0 {
			mask.Pix[i] = 0xFFFF
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
	energy := gradientEnergy(small)
	frame.Release(small)
	energy /= float64(w * h)
	norm := energy * math.Sqrt(float64(in.Pixels()))
	cycles := d.Params.pixCost(w*h, d.Params.DetectPerPixel)
	return norm >= d.EnergyThreshold, d.Params.cost(cycles)
}

// gradientEnergy sums |gx|+|gy| of frame.Gradient over f, a compact frame
// at the origin at least two pixels wide, in row-major order. Rows and
// columns clamped to the frame are Gradient's replicate border.
func gradientEnergy(f *frame.Frame) float64 {
	w, h := f.Width(), f.Height()
	energy := 0.0
	for y := 0; y < h; y++ {
		up := f.Pix[max(y-1, 0)*w:][:w]
		mid := f.Pix[y*w:][:w]
		down := f.Pix[min(y+1, h-1)*w:][:w]
		at := func(xl, x, xr int) float64 {
			return absf((float64(mid[xr])-float64(mid[xl]))/2) +
				absf((float64(down[x])-float64(up[x]))/2)
		}
		energy += at(0, 0, 1)
		for x := 1; x < w-1; x++ {
			energy += at(x-1, x, x+1)
		}
		energy += at(w-2, w-1, w-1)
	}
	return energy
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
