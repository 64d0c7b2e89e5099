// Package frame provides the image substrate for the Triple-C reproduction:
// 16-bit grayscale frames as used by the paper's X-ray application
// (1024x1024 pixels, 2 bytes/pixel, 30 Hz), rectangular regions of interest,
// and the pixel-level operations the task library is built from.
//
// Pixels are stored row-major in a flat []uint16; a Frame may alias a region
// of a parent frame (like the standard library's image.SubImage) so ROI
// processing does not copy pixel data.
package frame

import "fmt"

// BytesPerPixel is the pixel storage width used throughout the paper's
// bandwidth arithmetic (1024x1024 px * 2 B/px * 30 Hz ~= 60 MB/s).
const BytesPerPixel = 2

// Rect is a rectangular pixel region [X0,X1) x [Y0,Y1).
type Rect struct {
	X0, Y0, X1, Y1 int
}

// R is shorthand for constructing a Rect.
func R(x0, y0, x1, y1 int) Rect { return Rect{x0, y0, x1, y1} }

// Width returns the horizontal extent of r (0 when empty).
func (r Rect) Width() int {
	if r.X1 <= r.X0 {
		return 0
	}
	return r.X1 - r.X0
}

// Height returns the vertical extent of r (0 when empty).
func (r Rect) Height() int {
	if r.Y1 <= r.Y0 {
		return 0
	}
	return r.Y1 - r.Y0
}

// Area returns Width*Height in pixels.
func (r Rect) Area() int { return r.Width() * r.Height() }

// Empty reports whether r contains no pixels.
func (r Rect) Empty() bool { return r.Area() == 0 }

// Contains reports whether the point (x, y) lies inside r.
func (r Rect) Contains(x, y int) bool {
	return x >= r.X0 && x < r.X1 && y >= r.Y0 && y < r.Y1
}

// Intersect returns the largest rectangle contained in both r and s.
func (r Rect) Intersect(s Rect) Rect {
	out := Rect{
		X0: max(r.X0, s.X0), Y0: max(r.Y0, s.Y0),
		X1: min(r.X1, s.X1), Y1: min(r.Y1, s.Y1),
	}
	if out.X1 < out.X0 {
		out.X1 = out.X0
	}
	if out.Y1 < out.Y0 {
		out.Y1 = out.Y0
	}
	return out
}

// Union returns the smallest rectangle containing both r and s. An empty
// rectangle is the identity.
func (r Rect) Union(s Rect) Rect {
	if r.Empty() {
		return s
	}
	if s.Empty() {
		return r
	}
	return Rect{
		X0: min(r.X0, s.X0), Y0: min(r.Y0, s.Y0),
		X1: max(r.X1, s.X1), Y1: max(r.Y1, s.Y1),
	}
}

// Inset shrinks r by d pixels on every side (negative d grows it). The
// result is clamped to be non-inverted.
func (r Rect) Inset(d int) Rect {
	out := Rect{r.X0 + d, r.Y0 + d, r.X1 - d, r.Y1 - d}
	if out.X1 < out.X0 {
		out.X0 = (r.X0 + r.X1) / 2
		out.X1 = out.X0
	}
	if out.Y1 < out.Y0 {
		out.Y0 = (r.Y0 + r.Y1) / 2
		out.Y1 = out.Y0
	}
	return out
}

// ClampTo translates and clips r so it fits within bounds while preserving
// its size where possible.
func (r Rect) ClampTo(bounds Rect) Rect {
	w, h := r.Width(), r.Height()
	if w > bounds.Width() {
		w = bounds.Width()
	}
	if h > bounds.Height() {
		h = bounds.Height()
	}
	x0, y0 := r.X0, r.Y0
	if x0 < bounds.X0 {
		x0 = bounds.X0
	}
	if y0 < bounds.Y0 {
		y0 = bounds.Y0
	}
	if x0+w > bounds.X1 {
		x0 = bounds.X1 - w
	}
	if y0+h > bounds.Y1 {
		y0 = bounds.Y1 - h
	}
	return Rect{x0, y0, x0 + w, y0 + h}
}

// String renders the rectangle's corners.
func (r Rect) String() string {
	return fmt.Sprintf("(%d,%d)-(%d,%d)", r.X0, r.Y0, r.X1, r.Y1)
}

// Frame is a 16-bit grayscale image. The zero value is an empty frame.
type Frame struct {
	// Pix holds pixels row-major; row y starts at (y-Bounds.Y0)*Stride and
	// pixel (x, y) is Pix[(y-Bounds.Y0)*Stride + (x-Bounds.X0)].
	Pix    []uint16
	Stride int
	Bounds Rect
}

// New allocates a zeroed frame of the given dimensions.
func New(w, h int) *Frame {
	if w < 0 || h < 0 {
		panic("frame: negative dimensions")
	}
	return &Frame{
		Pix:    make([]uint16, w*h),
		Stride: w,
		Bounds: Rect{0, 0, w, h},
	}
}

// Width returns the frame width in pixels.
func (f *Frame) Width() int { return f.Bounds.Width() }

// Height returns the frame height in pixels.
func (f *Frame) Height() int { return f.Bounds.Height() }

// Pixels returns Width*Height.
func (f *Frame) Pixels() int { return f.Bounds.Area() }

// SizeBytes returns the storage footprint of the frame's pixel region in
// bytes (Pixels * BytesPerPixel). This feeds the Table 1 memory analysis.
func (f *Frame) SizeBytes() int { return f.Pixels() * BytesPerPixel }

// offset returns the index of (x, y) in Pix. No bounds check.
func (f *Frame) offset(x, y int) int {
	return (y-f.Bounds.Y0)*f.Stride + (x - f.Bounds.X0)
}

// At returns the pixel at (x, y). Out-of-bounds reads return 0, which gives
// filters zero-padding semantics at image borders.
func (f *Frame) At(x, y int) uint16 {
	if !f.Bounds.Contains(x, y) {
		return 0
	}
	return f.Pix[f.offset(x, y)]
}

// AtClamped returns the pixel at (x, y) with coordinates clamped to the
// frame bounds (replicate-border semantics, used by the smoothing filters).
func (f *Frame) AtClamped(x, y int) uint16 {
	if f.Bounds.Empty() {
		return 0
	}
	if x < f.Bounds.X0 {
		x = f.Bounds.X0
	}
	if x >= f.Bounds.X1 {
		x = f.Bounds.X1 - 1
	}
	if y < f.Bounds.Y0 {
		y = f.Bounds.Y0
	}
	if y >= f.Bounds.Y1 {
		y = f.Bounds.Y1 - 1
	}
	return f.Pix[f.offset(x, y)]
}

// Set writes the pixel at (x, y); out-of-bounds writes are ignored.
func (f *Frame) Set(x, y int, v uint16) {
	if !f.Bounds.Contains(x, y) {
		return
	}
	f.Pix[f.offset(x, y)] = v
}

// Fill sets every pixel in the frame to v.
func (f *Frame) Fill(v uint16) {
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		row := f.Pix[f.offset(f.Bounds.X0, y) : f.offset(f.Bounds.X0, y)+f.Width()]
		for i := range row {
			row[i] = v
		}
	}
}

// Clone returns a deep copy of f with compact stride.
func (f *Frame) Clone() *Frame {
	out := New(f.Width(), f.Height())
	out.Bounds = f.Bounds
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		src := f.Pix[f.offset(f.Bounds.X0, y) : f.offset(f.Bounds.X0, y)+f.Width()]
		dst := out.Pix[(y-f.Bounds.Y0)*out.Stride : (y-f.Bounds.Y0)*out.Stride+f.Width()]
		copy(dst, src)
	}
	return out
}

// SubFrame returns a view of f restricted to r (intersected with f's
// bounds). The view shares pixel storage with f.
func (f *Frame) SubFrame(r Rect) *Frame {
	r = r.Intersect(f.Bounds)
	if r.Empty() {
		return &Frame{Bounds: r, Stride: f.Stride}
	}
	return &Frame{
		Pix:    f.Pix[f.offset(r.X0, r.Y0):],
		Stride: f.Stride,
		Bounds: r,
	}
}

// Row returns the pixels of row y as a shared slice, or nil if y is outside
// the frame.
func (f *Frame) Row(y int) []uint16 {
	if y < f.Bounds.Y0 || y >= f.Bounds.Y1 {
		return nil
	}
	start := f.offset(f.Bounds.X0, y)
	return f.Pix[start : start+f.Width()]
}

// MinMax returns the smallest and largest pixel value in the frame.
// An empty frame reports (0, 0).
func (f *Frame) MinMax() (lo, hi uint16) {
	if f.Bounds.Empty() {
		return 0, 0
	}
	lo, hi = 0xFFFF, 0
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		for _, v := range f.Row(y) {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	return lo, hi
}

// MeanValue returns the average pixel value of the frame.
func (f *Frame) MeanValue() float64 {
	n := f.Pixels()
	if n == 0 {
		return 0
	}
	var sum uint64
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		for _, v := range f.Row(y) {
			sum += uint64(v)
		}
	}
	return float64(sum) / float64(n)
}

// Equal reports whether two frames have identical bounds and pixels.
func (f *Frame) Equal(g *Frame) bool {
	if f.Bounds != g.Bounds {
		return false
	}
	for y := f.Bounds.Y0; y < f.Bounds.Y1; y++ {
		fr, gr := f.Row(y), g.Row(y)
		for i := range fr {
			if fr[i] != gr[i] {
				return false
			}
		}
	}
	return true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
