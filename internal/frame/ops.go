package frame

import (
	"errors"
	"math"
	"math/bits"
	"sync"

	"triplec/internal/parallel"
)

// The stencil kernels in this file are split into a fast interior path and a
// thin clamped border path. The interior path indexes Pix directly with
// hoisted strides — no per-pixel bounds clamps — while the border of radius
// r falls back to AtClamped. Both paths accumulate in exactly the same
// order, so the split output is bit-identical to the naive
// clamp-every-tap formulation (the equivalence tests in equiv_test.go and
// fuzz_test.go pin this). The blur pads rows and clamps row indices instead.
//
// Every kernel also has a ...Into variant that reuses a caller-supplied
// destination when its geometry matches, so steady-state per-frame
// processing allocates nothing (see pool.go for the buffer pool the task
// layer feeds these from).

// Kernel is a square convolution kernel with odd side length.
type Kernel struct {
	Side int       // side length, odd
	W    []float64 // Side*Side weights, row-major
}

// NewKernel constructs a kernel from weights; len(w) must be an odd perfect
// square.
func NewKernel(w []float64) (Kernel, error) {
	side := int(math.Round(math.Sqrt(float64(len(w)))))
	if side*side != len(w) || side%2 == 0 || side == 0 {
		return Kernel{}, errors.New("frame: kernel must be an odd square")
	}
	return Kernel{Side: side, W: w}, nil
}

// ensureDst returns dst when it can hold a compact w x h image (Stride == w
// and exactly w*h pixels), rebounded to bounds; otherwise it allocates a
// fresh frame. Into-variants use it so callers can blindly thread a reused
// destination (possibly nil) through per-frame loops.
func ensureDst(dst *Frame, w, h int, bounds Rect) *Frame {
	if dst != nil && dst.Stride == w && len(dst.Pix) == w*h && w > 0 {
		dst.Bounds = bounds
		return dst
	}
	out := New(w, h)
	out.Bounds = bounds
	return out
}

// ConvolveInto is Convolve writing into dst (reused when its geometry
// matches, freshly allocated otherwise; dst may be nil). dst must not alias
// src. It returns the destination actually used.
func ConvolveInto(dst, src *Frame, k Kernel) *Frame {
	dst = ensureDst(dst, src.Width(), src.Height(), src.Bounds)
	convolveRows(dst, src, k, src.Bounds.Y0, src.Bounds.Y1)
	return dst
}

// convolveRows convolves the absolute row range [yLo, yHi) of src into dst.
// The row range split lets the parallel variant stripe the same code.
func convolveRows(dst, src *Frame, k Kernel, yLo, yHi int) {
	b := src.Bounds
	r := k.Side / 2
	xLoI, xHiI := b.X0+r, b.X1-r // interior column span (may be empty)
	for y := yLo; y < yHi; y++ {
		d0 := (y - b.Y0) * dst.Stride
		drow := dst.Pix[d0 : d0+b.Width()]
		if y-b.Y0 >= r && b.Y1-y > r && xHiI > xLoI {
			for x := b.X0; x < xLoI; x++ {
				drow[x-b.X0] = convolveClamped(src, k, r, x, y)
			}
			base := (y-r-b.Y0)*src.Stride - b.X0 - r
			for x := xLoI; x < xHiI; x++ {
				acc := 0.0
				wi := 0
				off := base + x
				for dy := 0; dy < k.Side; dy++ {
					row := src.Pix[off : off+k.Side]
					for j, wv := range k.W[wi : wi+k.Side] {
						acc += wv * float64(row[j])
					}
					wi += k.Side
					off += src.Stride
				}
				drow[x-b.X0] = clamp16(acc)
			}
			for x := xHiI; x < b.X1; x++ {
				drow[x-b.X0] = convolveClamped(src, k, r, x, y)
			}
		} else {
			for x := b.X0; x < b.X1; x++ {
				drow[x-b.X0] = convolveClamped(src, k, r, x, y)
			}
		}
	}
}

// convolveClamped is the border path: every tap goes through AtClamped.
func convolveClamped(src *Frame, k Kernel, r, x, y int) uint16 {
	acc := 0.0
	wi := 0
	for dy := -r; dy <= r; dy++ {
		for dx := -r; dx <= r; dx++ {
			acc += k.W[wi] * float64(src.AtClamped(x+dx, y+dy))
			wi++
		}
	}
	return clamp16(acc)
}

// GaussianKernel1D returns a normalized 1-D Gaussian of the given sigma,
// truncated at 3 sigma (minimum radius 1).
func GaussianKernel1D(sigma float64) []float64 {
	if sigma <= 0 {
		return []float64{1}
	}
	r := int(math.Ceil(3 * sigma))
	if r < 1 {
		r = 1
	}
	w := make([]float64, 2*r+1)
	sum := 0.0
	for i := -r; i <= r; i++ {
		v := math.Exp(-float64(i*i) / (2 * sigma * sigma))
		w[i+r] = v
		sum += v
	}
	for i := range w {
		w[i] /= sum
	}
	return w
}

// gaussCache memoizes GaussianKernel1D per sigma so the per-frame blur path
// allocates no kernel weights. The cache is capped: past 64 distinct sigmas
// (only tests sweep that many) new sigmas compute without being stored.
var (
	gaussMu    sync.Mutex
	gaussCache = make(map[float64][]float64)
)

func gaussianKernel(sigma float64) []float64 {
	gaussMu.Lock()
	w, ok := gaussCache[sigma]
	gaussMu.Unlock()
	if ok {
		return w
	}
	w = GaussianKernel1D(sigma)
	gaussMu.Lock()
	if len(gaussCache) < 64 {
		gaussCache[sigma] = w
	}
	gaussMu.Unlock()
	return w
}

// GaussianBlurInto is GaussianBlur writing into dst (reused when its
// geometry matches; dst may be nil, must not alias src). The row scratch is
// pooled, so a steady-state call with a reused dst allocates nothing. It
// returns the destination used.
func GaussianBlurInto(dst, src *Frame, sigma float64) *Frame {
	return GaussianBlurIntoParallel(dst, src, sigma, 1)
}

// blurRows blurs rows [lo, hi) of src, counted from its first row, into dst.
func blurRows(dst, src *Frame, w []float64, lo, hi int) {
	blurSweep(src, w, lo, hi, func(y int, _, mid, _ []float64) {
		drow := dst.Pix[y*dst.Stride:][:len(mid)]
		for x, v := range mid {
			drow[x] = uint16(v)
		}
	})
}

// GaussianBlurSweep is GaussianBlur handed to a row consumer instead of
// stored: for every row y in [lo, hi) of src, counted from its first row, it
// calls fn with that row of the blurred image and the rows above and below
// it, replicate-clamped to the view, as float64 rows holding exactly the
// 16-bit pixels GaussianBlur stores. The rows are valid only during the
// call, so a 3x3 stencil over the blur needs no blurred frame and converts
// no pixel twice. A stripe [lo, hi) blurs one row beyond each of its ends;
// every split of the rows sees the same values.
func GaussianBlurSweep(src *Frame, sigma float64, lo, hi int, fn func(y int, up, mid, down []float64)) {
	blurSweep(src, gaussianKernel(sigma), lo, hi, fn)
}

// blurSweep is the separable blur with taps w, a row at a time, working in
// the pooled scratch. The horizontal pass of a source row lands, rounded to
// 16 bits like a stored pixel, in a ring of the 2r+1 float64 rows the
// vertical pass reads, and the vertical pass, rounded the same way, in a
// ring of the three rows fn is handed: each source pixel is converted once,
// neither pass walks a column, and a stripe recomputes only the r+1 rows
// above and below it. Borders replicate the view's own edge (a row padded
// with r copies of its end pixels, a row index clamped to the view), which
// is AtClamped on src.Bounds.
func blurSweep(src *Frame, w []float64, lo, hi int, fn func(y int, up, mid, down []float64)) {
	n, r := len(w), len(w)/2
	width, height := src.Width(), src.Height()
	if width == 0 || lo >= hi {
		return
	}
	s := scratchPool.Get().(*scratch)
	rows := s.floats((n+4)*width + 2*r)
	padded := rows[:width+2*r]
	ring := rows[len(padded):][:n*width]
	out := rows[len(padded)+n*width:][:3*width]
	slot := func(y int) []float64 { return out[y%3*width:][:width] }
	next := max(lo-1-r, 0) // first source row without its horizontal pass in the ring
	for yb := max(lo-1, 0); yb <= min(hi, height-1); yb++ {
		for ; next <= yb+r && next < height; next++ {
			srow := src.Pix[next*src.Stride:][:width]
			for i := 0; i < r; i++ {
				padded[i], padded[r+width+i] = float64(srow[0]), float64(srow[width-1])
			}
			for x, v := range srow {
				padded[r+x] = float64(v)
			}
			h := ring[next%n*width:][:width]
			tapSum(h, w, func(i int) []float64 { return padded[i:] })
			for x, v := range h {
				h[x] = float64(clamp16(v))
			}
		}
		o := slot(yb)
		tapSum(o, w, func(i int) []float64 {
			row := min(max(yb-r+i, 0), height-1)
			return ring[row%n*width:]
		})
		for x, v := range o {
			o[x] = float64(clamp16(v))
		}
		if y := yb - 1; y >= lo {
			fn(y, slot(max(y-1, 0)), slot(y), o)
		}
	}
	if hi == height { // the bottom row is its own lower neighbour
		y := height - 1
		fn(y, slot(max(y-1, 0)), slot(y), slot(y))
	}
	scratchPool.Put(s)
}

// tapSum sets acc[x] to w[0]*tap(0)[x] + w[1]*tap(1)[x] + ... for the odd
// number of taps in w. Each pixel adds its products left to right, the order
// of a tap loop over that pixel (whose 0.0 + w[0]*v is w[0]*v), so the sum is
// bit-identical to one; sweeping tap-major leaves no add waiting on the
// previous one.
func tapSum(acc, w []float64, tap func(i int) []float64) {
	n := len(acc)
	a, w0 := tap(0)[:n], w[0]
	for x := range acc {
		acc[x] = w0 * a[x]
	}
	i := 1
	for ; i+3 < len(w); i += 4 {
		a, b, c, d := tap(i)[:n], tap(i + 1)[:n], tap(i + 2)[:n], tap(i + 3)[:n]
		wa, wb, wc, wd := w[i], w[i+1], w[i+2], w[i+3]
		for x := range acc {
			acc[x] = acc[x] + wa*a[x] + wb*b[x] + wc*c[x] + wd*d[x]
		}
	}
	for ; i < len(w); i += 2 {
		a, b := tap(i)[:n], tap(i + 1)[:n]
		wa, wb := w[i], w[i+1]
		for x := range acc {
			acc[x] = acc[x] + wa*a[x] + wb*b[x]
		}
	}
}

// Hessian holds the three independent second-derivative responses at a pixel.
type Hessian struct {
	XX, YY, XY float64
}

// Eigenvalues returns the eigenvalues of the 2x2 symmetric Hessian, ordered
// |l1| >= |l2|. For a dark line on a bright background the principal
// eigenvalue l1 is large and positive.
func (h Hessian) Eigenvalues() (l1, l2 float64) {
	tr := h.XX + h.YY
	det := h.XX*h.YY - h.XY*h.XY
	d := tr*tr/4 - det
	if d <= 0 { // math.Max(0, d), NaN included, without the call per pixel
		d = 0
	}
	disc := math.Sqrt(d)
	a, b := tr/2+disc, tr/2-disc
	if math.Abs(a) >= math.Abs(b) {
		return a, b
	}
	return b, a
}

// BilinearAt samples f at the real-valued location (x, y) with bilinear
// interpolation and replicate borders. The four taps take a direct-indexing
// fast path when the 2x2 support lies inside the frame.
func BilinearAt(f *Frame, x, y float64) float64 {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	b := f.Bounds
	var v00, v10, v01, v11 float64
	if x0 >= b.X0 && x0+1 < b.X1 && y0 >= b.Y0 && y0+1 < b.Y1 {
		i := (y0-b.Y0)*f.Stride + (x0 - b.X0)
		v00 = float64(f.Pix[i])
		v10 = float64(f.Pix[i+1])
		v01 = float64(f.Pix[i+f.Stride])
		v11 = float64(f.Pix[i+f.Stride+1])
	} else {
		v00 = float64(f.AtClamped(x0, y0))
		v10 = float64(f.AtClamped(x0+1, y0))
		v01 = float64(f.AtClamped(x0, y0+1))
		v11 = float64(f.AtClamped(x0+1, y0+1))
	}
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

// Tap is one destination index's share of a separable bilinear resample
// along one axis: the two source indices it blends, relative to the source
// view's origin, and their weights: F for I1, G = 1-F for I0. int32 indices
// keep a 512-column table inside 12 KiB of L1; no frame has 2^31 rows or
// columns.
type Tap struct {
	I0, I1 int32
	F, G   float64
}

// XTap returns the horizontal tap for the real source coordinate x: the
// floor, fraction and replicate-border clamp of BilinearAt.
func (f *Frame) XTap(x float64) Tap { return tapAt(x, f.Bounds.X0, f.Bounds.X1) }

// YTap is XTap for the vertical axis.
func (f *Frame) YTap(y float64) Tap { return tapAt(y, f.Bounds.Y0, f.Bounds.Y1) }

// tapAt clamps in coordinate space before making the indices relative to
// lo, so a coordinate far outside [lo, hi) — or one whose floor saturates
// int — lands on the border pixel the way AtClamped puts it there.
func tapAt(c float64, lo, hi int) Tap {
	i := int(math.Floor(c))
	i0, i1 := i, i+1
	if i0 < lo {
		i0 = lo
	}
	if i0 >= hi {
		i0 = hi - 1
	}
	if i1 < lo {
		i1 = lo
	}
	if i1 >= hi {
		i1 = hi - 1
	}
	f := c - float64(i)
	return Tap{I0: int32(i0 - lo), I1: int32(i1 - lo), F: f, G: 1 - f}
}

// GrowTaps returns taps resized to n entries, reallocating only to grow.
func GrowTaps(taps []Tap, n int) []Tap {
	if cap(taps) < n {
		return make([]Tap, n)
	}
	return taps[:n]
}

// ResampleRows fills rows [yLo, yHi) of dst, counted from dst's first row:
// pixel x of row y becomes clamp16(BilinearAt(src, cx, cy)) for the
// coordinates xs[x] and ys[y] were built from with src.XTap and src.YTap.
// src must not be empty, dst must be at least len(xs) wide and must not
// alias src. This is the one bilinear pixel loop behind Resize;
// Accumulator.AddResampledInto integrates the same pixels.
func ResampleRows(dst, src *Frame, xs, ys []Tap, yLo, yHi int) {
	s := scratchPool.Get().(*scratch)
	bilinearRows(dst, nil, nil, s.floats(4*len(xs)), src, xs, ys, yLo, yHi)
	scratchPool.Put(s)
}

// SampleRows is ResampleRows without the rounding to a pixel: out[y*len(xs)+x]
// becomes BilinearAt(src, cx, cy) for every tap of xs and ys — zero, like
// BilinearAt, when src is empty. ring is 4*len(xs) floats of the caller's
// scratch. The registration stage compares patches of two frames this way.
func SampleRows(out, ring []float64, src *Frame, xs, ys []Tap) {
	if src.Bounds.Empty() {
		clear(out[:len(xs)*len(ys)])
		return
	}
	bilinearRows(nil, out, nil, ring, src, xs, ys, 0, len(ys))
}

// bilinearRows is the row kernel under all three: it stores the samples into
// out when dst is nil, and otherwise rounds them to pixels, which land in dst
// or, when acc is set, are added into acc's sums while dst gets the running
// average of acc's frames. Two passes: the horizontal one is made once per
// source row, into a ring of two rows of products, and the vertical one
// blends four contiguous float64 rows. The sum keeps BilinearAt's
// association, so the two agree bit for bit.
//
// Resampling into dst alone where every tap of both tables weighs its two
// pixels ½ and ½ (an exact 2:1 or 4:1 downsample) is integer: the blend is
// then (a+b+c+d)/4 exactly, whose clamp16 is (a+b+c+d+2)>>2.
func bilinearRows(dst *Frame, out []float64, acc *Accumulator, ring []float64, src *Frame, xs, ys []Tap, yLo, yHi int) {
	n := len(xs)
	if dst != nil && acc == nil && halfTaps(xs) && halfTaps(ys[yLo:yHi]) {
		for y := yLo; y < yHi; y++ {
			ty := ys[y]
			r0, r1 := src.Pix[int(ty.I0)*src.Stride:], src.Pix[int(ty.I1)*src.Stride:]
			drow := dst.Pix[y*dst.Stride:][:n]
			for x := range drow {
				tx := &xs[x]
				s := uint32(r0[tx.I0]) + uint32(r0[tx.I1]) + uint32(r1[tx.I0]) + uint32(r1[tx.I1])
				drow[x] = uint16((s + 2) >> 2)
			}
		}
		return
	}
	var m uint64
	if acc != nil {
		m = reciprocal(acc.frames)
	}
	h := hring{src: src, xs: xs, buf: ring[:4*n], have: [2]int32{-1, -1}}
	for y := yLo; y < yHi; y++ {
		ty := ys[y]
		fy, gy := ty.F, ty.G
		a, b := h.slot(ty.I0, ty.I1), h.slot(ty.I1, ty.I0)
		hg0, hf0, hg1, hf1 := a[:n], a[n:][:n], b[:n], b[n:][:n]
		switch {
		case dst == nil:
			orow := out[y*n:][:n]
			for x := range orow {
				orow[x] = hg0[x]*gy + hf0[x]*gy + hg1[x]*fy + hf1[x]*fy
			}
		case acc != nil:
			sum, avg := acc.sum[y*n:][:n], dst.Pix[y*dst.Stride:][:n]
			for x := range sum {
				s := sum[x] + uint32(clamp16(hg0[x]*gy+hf0[x]*gy+hg1[x]*fy+hf1[x]*fy))
				sum[x] = s
				avg[x] = quotient(s, m)
			}
		default:
			drow := dst.Pix[y*dst.Stride:][:n]
			for x := range drow {
				drow[x] = clamp16(hg0[x]*gy + hf0[x]*gy + hg1[x]*fy + hf1[x]*fy)
			}
		}
	}
}

// halfTaps reports whether every tap of taps has F == G == 0.5.
func halfTaps(taps []Tap) bool {
	for _, t := range taps {
		if t.F != 0.5 || t.G != 0.5 {
			return false
		}
	}
	return true
}

// hring holds the horizontal pass of the two source rows a destination row
// blends: slot s keeps hg[x] = row[xs[x].I0]*G and hf[x] = row[xs[x].I1]*F of
// source row have[s]. A row is filled when first asked for and reused for
// as long as it is one of the two in use — every repeat under magnification,
// and whenever one destination row's lower source row is the next one's upper.
type hring struct {
	src  *Frame
	xs   []Tap
	buf  []float64 // two slots of len(xs) hg then len(xs) hf
	have [2]int32  // source row in each slot, -1 when empty
}

// slot returns the slot holding source row i, filling on a miss the one that
// does not hold row keep: the other row of the pair is in use, or about to be.
// At a clamped border the two are one row and share a slot.
func (h *hring) slot(i, keep int32) []float64 {
	n := len(h.xs)
	s := 0
	switch {
	case h.have[0] == i:
	case h.have[1] == i:
		s = 1
	default:
		if h.have[0] == keep {
			s = 1
		}
		h.have[s] = i
		row := h.src.Pix[int(i)*h.src.Stride:]
		xs := h.xs
		hg, hf := h.buf[s*2*n:][:len(xs)], h.buf[s*2*n+n:][:len(xs)]
		for x := range xs {
			tx := &xs[x]
			hg[x], hf[x] = float64(row[tx.I0])*tx.G, float64(row[tx.I1])*tx.F
		}
	}
	return h.buf[s*2*n:][:2*n]
}

// scratch backs the two tap tables one Resize call builds and
// the float64 rows one blurSweep or ResampleRows call works in; pooled so a
// steady-state call allocates nothing. One pool for all, so that the resizes
// every frame runs keep the blur's rows from ageing out of it between frames
// that blur.
type scratch struct {
	taps []Tap
	rows []float64
}

var scratchPool = sync.Pool{New: func() any { return new(scratch) }}

// floats returns n float64s of the scratch, contents unspecified. It grows to
// a power of two: an ROI's width drifts from frame to frame, and an exact fit
// would reallocate at every new maximum.
func (t *scratch) floats(n int) []float64 {
	if cap(t.rows) < n {
		t.rows = make([]float64, 1<<bits.Len(uint(n-1)))
	}
	return t.rows[:n]
}

// tables returns a w-entry and an h-entry table carved from the scratch.
func (t *scratch) tables(w, h int) (xs, ys []Tap) {
	t.taps = GrowTaps(t.taps, w+h)
	return t.taps[:w], t.taps[w:]
}

// Resize scales src to (w, h) with bilinear interpolation; this is the
// zoom-stage primitive.
func Resize(src *Frame, w, h int) *Frame {
	return ResizeInto(nil, src, w, h)
}

// ResizeInto is Resize with destination reuse (dst may be nil, must not
// alias src); it returns the destination used.
func ResizeInto(dst, src *Frame, w, h int) *Frame {
	return ResizeIntoParallel(dst, src, w, h, 1)
}

// resizeTaps builds the pixel-centre-aligned tap tables mapping a (w, h)
// destination onto src.
func (t *scratch) resizeTaps(src *Frame, w, h int) (xs, ys []Tap) {
	xs, ys = t.tables(w, h)
	sx := float64(src.Width()) / float64(w)
	sy := float64(src.Height()) / float64(h)
	for x := range xs {
		xs[x] = src.XTap(float64(src.Bounds.X0) + (float64(x)+0.5)*sx - 0.5)
	}
	for y := range ys {
		ys[y] = src.YTap(float64(src.Bounds.Y0) + (float64(y)+0.5)*sy - 0.5)
	}
	return xs, ys
}

// AccumulatorMaxFrames is how many 16-bit frames an Accumulator's 32-bit
// sums integrate without overflow; the owner must Reset before adding more.
const AccumulatorMaxFrames = 1 << 16

// Accumulator integrates frames for temporal averaging (the enhancement
// stage). It keeps 32-bit sums, good for AccumulatorMaxFrames frames.
type Accumulator struct {
	sum    []uint32
	w, h   int
	frames int

	// The call in flight, for the stripes: its frames and tap tables.
	dst, src *Frame
	xs, ys   []Tap
}

// accumulate is AddResampledInto's striped pass. Each stripe takes its own
// ring of row products from the pool.
type accumulate Accumulator

func (p *accumulate) Stripe(_, lo, hi int) {
	a := (*Accumulator)(p)
	t := scratchPool.Get().(*scratch)
	bilinearRows(a.dst, nil, a, t.floats(4*a.w), a.src, a.xs, a.ys, lo, hi)
	scratchPool.Put(t)
}

// NewAccumulator returns an accumulator for frames of (w, h) pixels.
func NewAccumulator(w, h int) *Accumulator {
	return &Accumulator{sum: make([]uint32, w*h), w: w, h: h}
}

// AddResampledInto integrates the frame ResampleRows would make from src
// over the tap tables xs and ys, one per accumulator column and row, and
// writes the running average into dst (may be nil, must not alias src); it
// returns the destination used. src must not be empty. No resampled frame is
// stored: each row is blended, rounded, added to the sums and averaged in
// one pass, striped over hs (nil runs it inline).
func (a *Accumulator) AddResampledInto(dst, src *Frame, xs, ys []Tap, hs *parallel.HostStripes) *Frame {
	if len(xs) != a.w || len(ys) != a.h {
		panic("frame: tap tables do not match the accumulator")
	}
	dst = ensureDst(dst, a.w, a.h, Rect{0, 0, a.w, a.h})
	a.frames++
	a.dst, a.src, a.xs, a.ys = dst, src, xs, ys
	hs.Run(a.h, a.w, (*accumulate)(a))
	a.dst, a.src, a.xs, a.ys = nil, nil, nil, nil
	return dst
}

// reciprocal returns the multiplier with which quotient divides by n
// frames, 1 <= n <= AccumulatorMaxFrames: m = ⌊(2^48-1)/n⌋+1, so m·n = 2^48+e
// for some 0 <= e < n.
func reciprocal(n int) uint64 { return (1<<48-1)/uint64(n) + 1 }

// quotient is s/n for the reciprocal m of n and any sum s of at most n
// pixels, without a divide or a branch: the bits of s·m above bit 48.
// s·m/2^48 = s/n + s·e/(n·2^48), and s·e < 65535·n² < 2^48, so the excess is
// below 1/n and the floor is exact; s·m <= 65535·(2^48+e) stays below 2^64.
// n = 1 needs no case of its own: m = 2^48.
func quotient(s uint32, m uint64) uint16 { return uint16(uint64(s) * m >> 48) }

// Frames returns how many frames have been integrated.
func (a *Accumulator) Frames() int { return a.frames }

// Reset clears the accumulator.
func (a *Accumulator) Reset() {
	clear(a.sum)
	a.frames = 0
}

func clamp16(v float64) uint16 {
	if v <= 0 {
		return 0
	}
	if v >= 65535 {
		return 65535
	}
	return uint16(v + 0.5)
}
