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
// A RidgeDetector reuses internal scratch buffers and its result across
// calls and is therefore owned by one goroutine at a time, like the pipeline
// Engine that embeds it (its stripes are fine: they share one call). The
// RidgeResult Run returns is valid until the next Run; its mask is freshly
// taken from the shared frame pool on every call, and the caller may hand it
// back via frame.Release.
type RidgeDetector struct {
	// Sigma is the Gaussian pre-smoothing scale in pixels.
	Sigma float64
	// RelThreshold selects ridge pixels whose response exceeds this fraction
	// of the frame's maximum response.
	RelThreshold float64
	// Anisotropy is the minimum |l1|/(|l2|+1) ratio for a pixel to count as
	// part of an elongated structure rather than a blob.
	Anisotropy float64

	Params CostParams
	// Stripes runs the blur and response pass striped over the host's
	// cores — the real counterpart of the data-parallel partitioning the
	// runtime manager plans ("the tasks have a streaming nature", paper §6).
	// nil runs it inline. The result and the cost are the same either way.
	// The mask pass, about 2 ns a pixel, always runs inline: handing half of
	// it to a helper gains less than the helper takes to wake.
	Stripes *parallel.HostStripes

	vals []float64   // per-pixel response scratch, grown on demand
	res  RidgeResult // Run's result, reused

	// The call in flight, for the stripes: the input and the response
	// maximum of each stripe.
	in        *frame.Frame
	stripeMax []float64
}

// ridgeResponse is Run's striped pass.
type ridgeResponse RidgeDetector

func (p *ridgeResponse) Stripe(s, lo, hi int) {
	r := (*RidgeDetector)(p)
	r.stripeMax[s] = r.responseRows(r.vals, r.in, lo, hi)
}

// NewRidgeDetector returns a detector with scales suited to the synthetic
// vessel widths.
func NewRidgeDetector(p CostParams) *RidgeDetector {
	return &RidgeDetector{
		Sigma:        1.2,
		RelThreshold: 0.30,
		Anisotropy:   1.8,
		Params:       p,
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
	pixels := in.Pixels()
	r.res = RidgeResult{}
	if pixels == 0 {
		r.res.Mask = frame.New(0, 0)
		return &r.res, r.Params.cost(0)
	}
	width, height := in.Width(), in.Height()
	if k := r.Stripes.K(); len(r.stripeMax) < k {
		r.stripeMax = make([]float64, k)
	}
	clear(r.stripeMax)
	r.vals, r.in = r.scratch(pixels), in
	r.Stripes.Run(height, width, (*ridgeResponse)(r))
	r.in = nil
	maxResp := 0.0
	for _, m := range r.stripeMax {
		if m > maxResp {
			maxResp = m
		}
	}

	r.res.Mask = frame.Borrow(width, height)
	r.res.Mask.Bounds = in.Bounds
	if maxResp > 0 {
		r.res.RidgePixels = r.maskRows(r.res.Mask, r.vals, maxResp, 0, height)
	}

	// Cost: blur + Hessian over all pixels, plus the data-dependent
	// thinning/linking pass proportional to the ridge pixels found.
	cycles := r.Params.pixCost(pixels, blurPerPixel) +
		r.Params.pixCost(pixels, hessianPerPixel) +
		r.Params.pixCost(r.res.RidgePixels, nmsPerRidgePixel)
	return &r.res, r.Params.cost(cycles)
}

// response is the ridge measure of one pixel: for dark lines on a bright
// background the principal Hessian eigenvalue across the line is large and
// positive, while along the line it stays near zero, so the response is l1
// gated by anisotropy. responseRows calls it on the first and last column.
func (r *RidgeDetector) response(h frame.Hessian) float64 {
	l1, l2 := h.Eigenvalues()
	if l1 > 0 && math.Abs(l1) >= r.Anisotropy*(math.Abs(l2)+1) {
		return l1
	}
	return 0
}

// responseRows writes the ridge response of rows [lo, hi) of in (counted
// from its first row) into vals and returns their maximum. The Hessian is
// HessianAt's over the Gaussian blur of in, read from the blurred rows
// frame.GaussianBlurSweep hands over: no blurred frame is stored, and rows
// above and below the view are its replicate clamps. The first and last
// column clamp their column indices the same way and go through response.
//
// Interior pixels evaluate the same expressions in place and take no branch
// on the pixel: in blurred noise the signs of the trace and of tr/2-disc are
// coin tosses, and a mispredicted branch costs what the square root does.
// math.Abs differs from a branching abs only on -0, which the + 1 erases.
// They keep l1 = tr/2+disc where the sign bits of both tr and l1-gate are
// clear and 0 elsewhere, which is response bit for bit for any Anisotropy
// but NaN:
//   - tr < 0: the eigenvalue of larger magnitude is tr/2-disc, negative by
//     at least the integer |tr|, far above rounding, so response returns 0
//     whatever the anisotropy. At tr == 0 the two tie and Eigenvalues picks
//     the positive one, hence the sign of tr and not tr <= 0.
//   - tr >= 0: tr/2+disc >= |tr/2-disc| survives rounding, which is
//     monotone, so it is Eigenvalues' l1; l1-gate has its sign bit clear
//     exactly when l1 >= gate, distinct floats never differing by a rounded
//     zero; and keeping an l1 of 0 returns the 0 that l1 > 0 guards.
func (r *RidgeDetector) responseRows(vals []float64, in *frame.Frame, lo, hi int) float64 {
	width := in.Width()
	maxResp := 0.0
	frame.GaussianBlurSweep(in, r.Sigma, lo, hi, func(y int, up, mid, down []float64) {
		out := vals[y*width:][:width]
		edge := func(x int) float64 {
			xl, xr, c := max(x-1, 0), min(x+1, width-1), mid[x]
			return r.response(frame.Hessian{
				XX: mid[xr] - 2*c + mid[xl],
				YY: down[x] - 2*c + up[x],
				XY: (down[xr] - down[xl] - up[xr] + up[xl]) / 4,
			})
		}
		out[0], out[width-1] = edge(0), edge(width-1)
		m := max(maxResp, out[0], out[width-1])
		for x := 1; x < width-1; x++ {
			c := mid[x]
			hxx := mid[x+1] - 2*c + mid[x-1]
			hyy := down[x] - 2*c + up[x]
			hxy := (down[x+1] - down[x-1] - up[x+1] + up[x-1]) / 4
			tr := hxx + hyy
			d := tr*tr/4 - (hxx*hyy - hxy*hxy)
			if d <= 0 {
				d = 0
			}
			disc := math.Sqrt(d)
			l1 := tr/2 + disc
			gate := r.Anisotropy * (math.Abs(tr/2-disc) + 1)
			keep := ^(math.Float64bits(tr) | math.Float64bits(l1-gate)) >> 63
			v := math.Float64frombits(math.Float64bits(l1) & -keep)
			if v > m {
				m = v
			}
			out[x] = v
		}
		maxResp = m
	})
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
	cycles := d.Params.pixCost(w*h, detectPerPixel)
	return norm >= d.EnergyThreshold, d.Params.cost(cycles)
}

// gradientEnergy sums |gx|+|gy| of frame.Gradient over f, a compact frame
// at the origin at least two pixels wide, in row-major order. Rows and
// columns clamped to the frame are Gradient's replicate border. Each term is
// half an integer difference, and the float sum of them never rounds (it
// stays far below 2^52), so summing the differences in a uint64 with a
// branch-free abs and halving once is that sum bit for bit.
func gradientEnergy(f *frame.Frame) float64 {
	w, h := f.Width(), f.Height()
	var sum uint64
	for y := 0; y < h; y++ {
		up := f.Pix[max(y-1, 0)*w:][:w]
		mid := f.Pix[y*w:][:w]
		down := f.Pix[min(y+1, h-1)*w:][:w]
		sum += absDiff(mid[1], mid[0]) + absDiff(down[0], up[0])
		for x := 1; x < w-1; x++ {
			sum += absDiff(mid[x+1], mid[x-1]) + absDiff(down[x], up[x])
		}
		sum += absDiff(mid[w-1], mid[w-2]) + absDiff(down[w-1], up[w-1])
	}
	return float64(sum) / 2
}

// absDiff is |a-b| without a branch on the sign.
func absDiff(a, b uint16) uint64 {
	d := int64(a) - int64(b)
	m := d >> 63
	return uint64(d ^ m - m)
}
