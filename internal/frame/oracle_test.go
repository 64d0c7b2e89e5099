package frame

import "errors"

// Point samplers and the accumulator's plain add-then-divide, which no
// production code calls any more: the row kernels that replaced them are
// checked against these.

// HessianAt computes central-difference second derivatives at (x, y) with
// replicate borders. Interior pixels (at least one pixel from every edge)
// take a direct-indexing fast path.
func HessianAt(f *Frame, x, y int) Hessian {
	b := f.Bounds
	if x > b.X0 && x < b.X1-1 && y > b.Y0 && y < b.Y1-1 {
		i := (y-b.Y0)*f.Stride + (x - b.X0)
		s := f.Stride
		c := float64(f.Pix[i])
		return Hessian{
			XX: float64(f.Pix[i+1]) - 2*c + float64(f.Pix[i-1]),
			YY: float64(f.Pix[i+s]) - 2*c + float64(f.Pix[i-s]),
			XY: (float64(f.Pix[i+s+1]) - float64(f.Pix[i+s-1]) -
				float64(f.Pix[i-s+1]) + float64(f.Pix[i-s-1])) / 4,
		}
	}
	c := float64(f.AtClamped(x, y))
	return Hessian{
		XX: float64(f.AtClamped(x+1, y)) - 2*c + float64(f.AtClamped(x-1, y)),
		YY: float64(f.AtClamped(x, y+1)) - 2*c + float64(f.AtClamped(x, y-1)),
		XY: (float64(f.AtClamped(x+1, y+1)) - float64(f.AtClamped(x-1, y+1)) -
			float64(f.AtClamped(x+1, y-1)) + float64(f.AtClamped(x-1, y-1))) / 4,
	}
}

// Gradient returns central-difference first derivatives at (x, y), with a
// direct-indexing fast path for interior pixels.
func Gradient(f *Frame, x, y int) (gx, gy float64) {
	b := f.Bounds
	if x > b.X0 && x < b.X1-1 && y > b.Y0 && y < b.Y1-1 {
		i := (y-b.Y0)*f.Stride + (x - b.X0)
		gx = (float64(f.Pix[i+1]) - float64(f.Pix[i-1])) / 2
		gy = (float64(f.Pix[i+f.Stride]) - float64(f.Pix[i-f.Stride])) / 2
		return gx, gy
	}
	gx = (float64(f.AtClamped(x+1, y)) - float64(f.AtClamped(x-1, y))) / 2
	gy = (float64(f.AtClamped(x, y+1)) - float64(f.AtClamped(x, y-1))) / 2
	return gx, gy
}

// Add integrates one frame; its dimensions must match the accumulator's.
func (a *Accumulator) Add(f *Frame) error {
	if f.Width() != a.w || f.Height() != a.h {
		return errors.New("frame: accumulator dimension mismatch")
	}
	i := 0
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		for _, v := range f.Row(y) {
			a.sum[i] += uint32(v)
			i++
		}
	}
	a.frames++
	return nil
}

// Average returns the running mean frame; nil before any Add.
func (a *Accumulator) Average() *Frame {
	return a.AverageInto(nil)
}

// AverageInto is Average with destination reuse (dst may be nil); it
// returns the destination used, or nil before any Add.
func (a *Accumulator) AverageInto(dst *Frame) *Frame {
	if a.frames == 0 {
		return nil
	}
	dst = ensureDst(dst, a.w, a.h, Rect{0, 0, a.w, a.h})
	n := uint32(a.frames)
	for i, s := range a.sum {
		dst.Pix[i] = uint16(s / n)
	}
	return dst
}

// AddAverageInto is Add followed by AverageInto (dst may be nil, must not
// alias f); it returns the destination used. After ResampleRows into a
// frame, it is what AddResampledInto computes without the frame.
func (a *Accumulator) AddAverageInto(dst, f *Frame) (*Frame, error) {
	if err := a.Add(f); err != nil {
		return nil, err
	}
	return a.AverageInto(dst), nil
}
