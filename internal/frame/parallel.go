package frame

import (
	"triplec/internal/parallel"
)

// The *Parallel variants stripe the exact same row helpers the serial
// kernels use (convolveRows, blurRows, ResampleRows), so their output is
// bit-identical to the serial versions: output rows are independent given
// the input, so striping never changes results.

// GaussianBlurIntoParallel is GaussianBlurInto striped over k goroutines
// (dst may be nil, must not alias src); it returns the destination used.
// k <= 1 is the serial version: both passes run inline, without a closure.
func GaussianBlurIntoParallel(dst, src *Frame, sigma float64, k int) *Frame {
	w := gaussianKernel(sigma)
	width, height := src.Width(), src.Height()
	dst = ensureDst(dst, width, height, src.Bounds)
	if width == 0 || height == 0 {
		return dst
	}
	if k <= 1 {
		blurRows(dst, src, w, 0, height)
	} else {
		parallel.ForStripes(height, k, func(_, lo, hi int) {
			blurRows(dst, src, w, lo, hi)
		})
	}
	return dst
}

// ResizeIntoParallel is ResizeInto striped over k goroutines (dst may be
// nil, must not alias src); it returns the destination used. A destination
// the size of the source is a row copy: every tap would land on a pixel
// centre with weight one.
func ResizeIntoParallel(dst, src *Frame, w, h, k int) *Frame {
	dst = ensureDst(dst, w, h, Rect{0, 0, w, h})
	if src.Pixels() == 0 || w == 0 || h == 0 {
		clear(dst.Pix)
		return dst
	}
	if w == src.Width() && h == src.Height() {
		for y := 0; y < h; y++ {
			copy(dst.Pix[y*dst.Stride:y*dst.Stride+w], src.Pix[y*src.Stride:])
		}
		return dst
	}
	t := scratchPool.Get().(*scratch)
	xs, ys := t.resizeTaps(src, w, h)
	if k <= 1 {
		bilinearRows(dst, nil, nil, t.floats(4*w), src, xs, ys, 0, h)
	} else {
		parallel.ForStripes(h, k, func(_, lo, hi int) {
			ResampleRows(dst, src, xs, ys, lo, hi)
		})
	}
	scratchPool.Put(t)
	return dst
}
