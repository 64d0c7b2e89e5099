package frame

import (
	"errors"
	"math"
)

// Additional pixel operations used by task options and available to
// downstream users of the image substrate: rank filtering, histogram-based
// thresholding, area downsampling and integral images.

// Median3x3Into is Median3x3 with destination reuse (dst may be nil, must
// not alias src); it returns the destination used. Interior pixels gather
// their window from three direct row slices; only the one-pixel border pays
// the clamped path. The median itself comes from a fixed 19-comparator
// sorting network — no allocation, no interface dispatch.
func Median3x3Into(dst, src *Frame) *Frame {
	dst = ensureDst(dst, src.Width(), src.Height(), src.Bounds)
	median3x3Rows(dst, src, src.Bounds.Y0, src.Bounds.Y1)
	return dst
}

// median3x3Rows filters the absolute row range [yLo, yHi) of src into dst.
func median3x3Rows(dst, src *Frame, yLo, yHi int) {
	b := src.Bounds
	width := b.Width()
	for y := yLo; y < yHi; y++ {
		d0 := (y - b.Y0) * dst.Stride
		drow := dst.Pix[d0 : d0+width]
		if y > b.Y0 && y < b.Y1-1 && width > 2 {
			s0 := (y - b.Y0) * src.Stride
			rm := src.Pix[s0-src.Stride : s0-src.Stride+width]
			rc := src.Pix[s0 : s0+width]
			rp := src.Pix[s0+src.Stride : s0+src.Stride+width]
			drow[0] = median3x3Clamped(src, b.X0, y)
			for xx := 1; xx < width-1; xx++ {
				drow[xx] = median9(
					rm[xx-1], rm[xx], rm[xx+1],
					rc[xx-1], rc[xx], rc[xx+1],
					rp[xx-1], rp[xx], rp[xx+1])
			}
			drow[width-1] = median3x3Clamped(src, b.X1-1, y)
		} else {
			for x := b.X0; x < b.X1; x++ {
				drow[x-b.X0] = median3x3Clamped(src, x, y)
			}
		}
	}
}

// median3x3Clamped is the border path: the window is gathered through
// AtClamped (replicate borders) and fed to the same sorting network.
func median3x3Clamped(src *Frame, x, y int) uint16 {
	return median9(
		src.AtClamped(x-1, y-1), src.AtClamped(x, y-1), src.AtClamped(x+1, y-1),
		src.AtClamped(x-1, y), src.AtClamped(x, y), src.AtClamped(x+1, y),
		src.AtClamped(x-1, y+1), src.AtClamped(x, y+1), src.AtClamped(x+1, y+1))
}

// median9 returns the median of nine values via the classic 19-comparator
// exchange network (Paeth, Graphics Gems): the value it leaves in the p4
// position equals the fifth-smallest element of the input.
func median9(p0, p1, p2, p3, p4, p5, p6, p7, p8 uint16) uint16 {
	sort2 := func(a, b uint16) (uint16, uint16) {
		if a > b {
			return b, a
		}
		return a, b
	}
	p1, p2 = sort2(p1, p2)
	p4, p5 = sort2(p4, p5)
	p7, p8 = sort2(p7, p8)
	p0, p1 = sort2(p0, p1)
	p3, p4 = sort2(p3, p4)
	p6, p7 = sort2(p6, p7)
	p1, p2 = sort2(p1, p2)
	p4, p5 = sort2(p4, p5)
	p7, p8 = sort2(p7, p8)
	p0, p3 = sort2(p0, p3)
	p5, p8 = sort2(p5, p8)
	p4, p7 = sort2(p4, p7)
	p3, p6 = sort2(p3, p6)
	p1, p4 = sort2(p1, p4)
	p2, p5 = sort2(p2, p5)
	p4, p7 = sort2(p4, p7)
	p4, p2 = sort2(p4, p2)
	p6, p4 = sort2(p6, p4)
	p4, p2 = sort2(p4, p2)
	_, _, _, _, _, _ = p0, p1, p3, p5, p7, p8
	return p4
}

// OtsuThreshold computes the threshold maximizing inter-class variance over
// the frame's 256-bin intensity histogram (computed on the top 8 bits),
// returning the 16-bit threshold value. An error is returned for empty or
// constant frames, where no threshold separates anything.
func OtsuThreshold(src *Frame) (uint16, error) {
	n := src.Pixels()
	if n == 0 {
		return 0, errors.New("frame: Otsu on empty frame")
	}
	var hist [256]int
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		for _, v := range src.Row(y) {
			hist[v>>8]++
		}
	}
	// Classic Otsu over the histogram.
	sumAll := 0.0
	for t, c := range hist {
		sumAll += float64(t) * float64(c)
	}
	var sumB, wB float64
	bestVar, bestT := -1.0, -1
	for t := 0; t < 256; t++ {
		wB += float64(hist[t])
		if wB == 0 {
			continue
		}
		wF := float64(n) - wB
		if wF == 0 {
			break
		}
		sumB += float64(t) * float64(hist[t])
		mB := sumB / wB
		mF := (sumAll - sumB) / wF
		between := wB * wF * (mB - mF) * (mB - mF)
		if between > bestVar {
			bestVar = between
			bestT = t
		}
	}
	if bestT < 0 || bestVar <= 0 {
		return 0, errors.New("frame: Otsu found no separating threshold")
	}
	return uint16(bestT)<<8 | 0xFF, nil
}

// Downsample2x halves both dimensions by averaging disjoint 2x2 blocks —
// the proper area filter (Resize point-samples bilinearly and keeps more
// noise). Odd trailing rows/columns are dropped.
func Downsample2x(src *Frame) *Frame {
	w, h := src.Width()/2, src.Height()/2
	dst := New(w, h)
	for y := 0; y < h; y++ {
		s0 := 2 * y * src.Stride
		r0 := src.Pix[s0 : s0+2*w]
		r1 := src.Pix[s0+src.Stride : s0+src.Stride+2*w]
		drow := dst.Pix[y*dst.Stride : y*dst.Stride+w]
		for x := 0; x < w; x++ {
			sum := uint32(r0[2*x]) + uint32(r0[2*x+1]) +
				uint32(r1[2*x]) + uint32(r1[2*x+1])
			drow[x] = uint16(sum / 4)
		}
	}
	return dst
}

// SobelInto is Sobel with destination reuse (dst may be nil, must not alias
// src); it returns the destination used. Interior pixels read their taps
// from three direct row slices.
func SobelInto(dst, src *Frame) *Frame {
	dst = ensureDst(dst, src.Width(), src.Height(), src.Bounds)
	b := src.Bounds
	width := b.Width()
	for y := b.Y0; y < b.Y1; y++ {
		d0 := (y - b.Y0) * dst.Stride
		drow := dst.Pix[d0 : d0+width]
		if y > b.Y0 && y < b.Y1-1 && width > 2 {
			s0 := (y - b.Y0) * src.Stride
			rm := src.Pix[s0-src.Stride : s0-src.Stride+width]
			rc := src.Pix[s0 : s0+width]
			rp := src.Pix[s0+src.Stride : s0+src.Stride+width]
			drow[0] = sobelClamped(src, b.X0, y)
			for xx := 1; xx < width-1; xx++ {
				gx := -float64(rm[xx-1]) - 2*float64(rc[xx-1]) - float64(rp[xx-1]) +
					float64(rm[xx+1]) + 2*float64(rc[xx+1]) + float64(rp[xx+1])
				gy := -float64(rm[xx-1]) - 2*float64(rm[xx]) - float64(rm[xx+1]) +
					float64(rp[xx-1]) + 2*float64(rp[xx]) + float64(rp[xx+1])
				v := math.Hypot(gx, gy) / (4 * 65535) * 65535
				drow[xx] = clamp16(v)
			}
			drow[width-1] = sobelClamped(src, b.X1-1, y)
		} else {
			for x := b.X0; x < b.X1; x++ {
				drow[x-b.X0] = sobelClamped(src, x, y)
			}
		}
	}
	return dst
}

// sobelClamped is the border path of the Sobel operator.
func sobelClamped(src *Frame, x, y int) uint16 {
	p := func(dx, dy int) float64 { return float64(src.AtClamped(x+dx, y+dy)) }
	gx := -p(-1, -1) - 2*p(-1, 0) - p(-1, 1) + p(1, -1) + 2*p(1, 0) + p(1, 1)
	gy := -p(-1, -1) - 2*p(0, -1) - p(1, -1) + p(-1, 1) + 2*p(0, 1) + p(1, 1)
	// Scaled so a full-range step edge maps near the top of the
	// range: max |g| is 4*65535 per axis.
	v := math.Hypot(gx, gy) / (4 * 65535) * 65535
	return clamp16(v)
}
