package frame

import (
	"errors"

	"triplec/internal/parallel"
)

// Pixel operations no program runs, kept with the tests that pin their
// behaviour: point operations, a summed-area table, a translation built on
// the bilinear row kernel, and a striped convolution over the serial
// kernel's rows.

// Threshold returns a frame where pixels >= t map to 65535 and others to 0.
func Threshold(src *Frame, t uint16) *Frame {
	return ThresholdInto(nil, src, t)
}

// ThresholdInto is Threshold with destination reuse (dst may be nil, must
// not alias src); it returns the destination used.
func ThresholdInto(dst, src *Frame, t uint16) *Frame {
	dst = ensureDst(dst, src.Width(), src.Height(), src.Bounds)
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		srow := src.Row(y)
		d0 := (y - src.Bounds.Y0) * dst.Stride
		drow := dst.Pix[d0 : d0+src.Width()]
		for i, v := range srow {
			if v >= t {
				drow[i] = 0xFFFF
			} else {
				drow[i] = 0
			}
		}
	}
	return dst
}

// Invert returns 65535 - pixel for every pixel (dark features become bright).
func Invert(src *Frame) *Frame {
	return InvertInto(nil, src)
}

// InvertInto is Invert with destination reuse (dst may be nil, must not
// alias src); it returns the destination used.
func InvertInto(dst, src *Frame) *Frame {
	dst = ensureDst(dst, src.Width(), src.Height(), src.Bounds)
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		srow := src.Row(y)
		d0 := (y - src.Bounds.Y0) * dst.Stride
		drow := dst.Pix[d0 : d0+src.Width()]
		for i, v := range srow {
			drow[i] = 0xFFFF - v
		}
	}
	return dst
}

// AbsDiff returns |a - b| per pixel; the frames must have equal bounds.
func AbsDiff(a, b *Frame) (*Frame, error) {
	return AbsDiffInto(nil, a, b)
}

// AbsDiffInto is AbsDiff with destination reuse (dst may be nil, must not
// alias a or b); it returns the destination used.
func AbsDiffInto(dst, a, b *Frame) (*Frame, error) {
	if a.Bounds != b.Bounds {
		return nil, errors.New("frame: AbsDiff bounds mismatch")
	}
	dst = ensureDst(dst, a.Width(), a.Height(), a.Bounds)
	for y := a.Bounds.Y0; y < a.Bounds.Y1; y++ {
		ar, br := a.Row(y), b.Row(y)
		d0 := (y - a.Bounds.Y0) * dst.Stride
		drow := dst.Pix[d0 : d0+a.Width()]
		for i := range ar {
			if ar[i] >= br[i] {
				drow[i] = ar[i] - br[i]
			} else {
				drow[i] = br[i] - ar[i]
			}
		}
	}
	return dst, nil
}

// Normalize linearly rescales the frame's pixel range to [0, 65535].
// A constant frame maps to all-zero.
func Normalize(src *Frame) *Frame {
	lo, hi := src.MinMax()
	dst := New(src.Width(), src.Height())
	dst.Bounds = src.Bounds
	if hi == lo {
		return dst
	}
	scale := 65535.0 / float64(hi-lo)
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		srow := src.Row(y)
		drow := dst.Pix[(y-src.Bounds.Y0)*dst.Stride : (y-src.Bounds.Y0)*dst.Stride+src.Width()]
		for i, v := range srow {
			drow[i] = clamp16(float64(v-lo) * scale)
		}
	}
	return dst
}

// FromPix wraps an existing pixel slice (length must be w*h) without copying.
func FromPix(pix []uint16, w, h int) (*Frame, error) {
	if len(pix) != w*h {
		return nil, errors.New("frame: pixel slice length does not match dimensions")
	}
	return &Frame{Pix: pix, Stride: w, Bounds: Rect{0, 0, w, h}}, nil
}

// Translate returns src shifted by the real-valued offset (dx, dy) using
// bilinear resampling.
func Translate(src *Frame, dx, dy float64) *Frame {
	return TranslateInto(nil, src, dx, dy)
}

// TranslateInto is Translate with destination reuse (dst may be nil, must
// not alias src); it returns the destination used.
func TranslateInto(dst, src *Frame, dx, dy float64) *Frame {
	w, h := src.Width(), src.Height()
	dst = ensureDst(dst, w, h, src.Bounds)
	if w == 0 || h == 0 {
		return dst
	}
	t := scratchPool.Get().(*scratch)
	xs, ys := t.tables(w, h)
	for x := range xs {
		xs[x] = src.XTap(float64(src.Bounds.X0+x) - dx)
	}
	for y := range ys {
		ys[y] = src.YTap(float64(src.Bounds.Y0+y) - dy)
	}
	bilinearRows(dst, nil, nil, t.floats(4*w), src, xs, ys, 0, h)
	scratchPool.Put(t)
	return dst
}

// ConvolveParallel is ConvolveInto with output rows striped over k
// goroutines; bit-identical to the serial version.
func ConvolveParallel(src *Frame, kern Kernel, k int) *Frame {
	dst := ensureDst(nil, src.Width(), src.Height(), src.Bounds)
	y0 := src.Bounds.Y0
	parallel.ForStripes(src.Height(), k, func(_, lo, hi int) {
		convolveRows(dst, src, kern, y0+lo, y0+hi)
	})
	return dst
}

// Integral is a summed-area table: Sum(x0,y0,x1,y1) of any rectangle in
// O(1) after O(n) construction.
type Integral struct {
	w, h int
	sums []uint64 // (w+1) x (h+1), row-major, first row/col zero
}

// NewIntegral builds the summed-area table of src.
func NewIntegral(src *Frame) *Integral {
	w, h := src.Width(), src.Height()
	ig := &Integral{w: w, h: h, sums: make([]uint64, (w+1)*(h+1))}
	stride := w + 1
	for y := 0; y < h; y++ {
		row := src.Row(src.Bounds.Y0 + y)
		var rowSum uint64
		for x := 0; x < w; x++ {
			rowSum += uint64(row[x])
			ig.sums[(y+1)*stride+(x+1)] = ig.sums[y*stride+(x+1)] + rowSum
		}
	}
	return ig
}

// Sum returns the pixel sum over the half-open rectangle [x0,x1) x [y0,y1)
// in frame-local coordinates (0-based), clamped to the table's extent.
func (ig *Integral) Sum(x0, y0, x1, y1 int) uint64 {
	clamp := func(v, lo, hi int) int {
		if v < lo {
			return lo
		}
		if v > hi {
			return hi
		}
		return v
	}
	x0 = clamp(x0, 0, ig.w)
	x1 = clamp(x1, 0, ig.w)
	y0 = clamp(y0, 0, ig.h)
	y1 = clamp(y1, 0, ig.h)
	if x1 <= x0 || y1 <= y0 {
		return 0
	}
	stride := ig.w + 1
	return ig.sums[y1*stride+x1] - ig.sums[y0*stride+x1] -
		ig.sums[y1*stride+x0] + ig.sums[y0*stride+x0]
}

// Mean returns the average pixel value over the rectangle (0 when empty).
func (ig *Integral) Mean(x0, y0, x1, y1 int) float64 {
	area := (x1 - x0) * (y1 - y0)
	if area <= 0 {
		return 0
	}
	return float64(ig.Sum(x0, y0, x1, y1)) / float64(area)
}
