package frame

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

// This file pins the central claim of the interior/border kernel split: the
// fast paths must be bit-identical to the naive clamp-every-tap reference
// formulations below, across arbitrary geometries — including SubFrame views
// whose storage is a strided window into a larger parent.

// ---- naive reference implementations (clamp every tap, no fast paths) ----

func naiveConvolve(src *Frame, k Kernel) *Frame {
	dst := New(src.Width(), src.Height())
	dst.Bounds = src.Bounds
	r := k.Side / 2
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		for x := src.Bounds.X0; x < src.Bounds.X1; x++ {
			acc := 0.0
			wi := 0
			for dy := -r; dy <= r; dy++ {
				for dx := -r; dx <= r; dx++ {
					acc += k.W[wi] * float64(src.AtClamped(x+dx, y+dy))
					wi++
				}
			}
			dst.Pix[(y-src.Bounds.Y0)*dst.Stride+(x-src.Bounds.X0)] = clamp16(acc)
		}
	}
	return dst
}

func naiveGaussianBlur(src *Frame, sigma float64) *Frame {
	w := GaussianKernel1D(sigma)
	r := len(w) / 2
	width, height := src.Width(), src.Height()
	tmp := New(width, height)
	tmp.Bounds = src.Bounds
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		for x := src.Bounds.X0; x < src.Bounds.X1; x++ {
			acc := 0.0
			for i := -r; i <= r; i++ {
				acc += w[i+r] * float64(src.AtClamped(x+i, y))
			}
			tmp.Pix[(y-src.Bounds.Y0)*tmp.Stride+(x-src.Bounds.X0)] = clamp16(acc)
		}
	}
	dst := New(width, height)
	dst.Bounds = src.Bounds
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		for x := src.Bounds.X0; x < src.Bounds.X1; x++ {
			acc := 0.0
			for i := -r; i <= r; i++ {
				acc += w[i+r] * float64(tmp.AtClamped(x, y+i))
			}
			dst.Pix[(y-src.Bounds.Y0)*dst.Stride+(x-src.Bounds.X0)] = clamp16(acc)
		}
	}
	return dst
}

func naiveMedian3x3(src *Frame) *Frame {
	dst := New(src.Width(), src.Height())
	dst.Bounds = src.Bounds
	var w [9]uint16
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		for x := src.Bounds.X0; x < src.Bounds.X1; x++ {
			i := 0
			for dy := -1; dy <= 1; dy++ {
				for dx := -1; dx <= 1; dx++ {
					w[i] = src.AtClamped(x+dx, y+dy)
					i++
				}
			}
			s := w
			sort.Slice(s[:], func(a, b int) bool { return s[a] < s[b] })
			dst.Pix[(y-src.Bounds.Y0)*dst.Stride+(x-src.Bounds.X0)] = s[4]
		}
	}
	return dst
}

func naiveSobel(src *Frame) *Frame {
	dst := New(src.Width(), src.Height())
	dst.Bounds = src.Bounds
	for y := src.Bounds.Y0; y < src.Bounds.Y1; y++ {
		for x := src.Bounds.X0; x < src.Bounds.X1; x++ {
			p := func(dx, dy int) float64 { return float64(src.AtClamped(x+dx, y+dy)) }
			gx := -p(-1, -1) - 2*p(-1, 0) - p(-1, 1) + p(1, -1) + 2*p(1, 0) + p(1, 1)
			gy := -p(-1, -1) - 2*p(0, -1) - p(1, -1) + p(-1, 1) + 2*p(0, 1) + p(1, 1)
			v := math.Hypot(gx, gy) / (4 * 65535) * 65535
			dst.Pix[(y-src.Bounds.Y0)*dst.Stride+(x-src.Bounds.X0)] = clamp16(v)
		}
	}
	return dst
}

func naiveHessianAt(f *Frame, x, y int) Hessian {
	c := float64(f.AtClamped(x, y))
	return Hessian{
		XX: float64(f.AtClamped(x+1, y)) - 2*c + float64(f.AtClamped(x-1, y)),
		YY: float64(f.AtClamped(x, y+1)) - 2*c + float64(f.AtClamped(x, y-1)),
		XY: (float64(f.AtClamped(x+1, y+1)) - float64(f.AtClamped(x-1, y+1)) -
			float64(f.AtClamped(x+1, y-1)) + float64(f.AtClamped(x-1, y-1))) / 4,
	}
}

func naiveGradient(f *Frame, x, y int) (gx, gy float64) {
	gx = (float64(f.AtClamped(x+1, y)) - float64(f.AtClamped(x-1, y))) / 2
	gy = (float64(f.AtClamped(x, y+1)) - float64(f.AtClamped(x, y-1))) / 2
	return gx, gy
}

func naiveBilinearAt(f *Frame, x, y float64) float64 {
	x0, y0 := int(math.Floor(x)), int(math.Floor(y))
	fx, fy := x-float64(x0), y-float64(y0)
	v00 := float64(f.AtClamped(x0, y0))
	v10 := float64(f.AtClamped(x0+1, y0))
	v01 := float64(f.AtClamped(x0, y0+1))
	v11 := float64(f.AtClamped(x0+1, y0+1))
	return v00*(1-fx)*(1-fy) + v10*fx*(1-fy) + v01*(1-fx)*fy + v11*fx*fy
}

func naiveResize(src *Frame, w, h int) *Frame {
	dst := New(w, h)
	if src.Pixels() == 0 || w == 0 || h == 0 {
		return dst
	}
	sx := float64(src.Width()) / float64(w)
	sy := float64(src.Height()) / float64(h)
	for y := 0; y < h; y++ {
		srcY := float64(src.Bounds.Y0) + (float64(y)+0.5)*sy - 0.5
		for x := 0; x < w; x++ {
			srcX := float64(src.Bounds.X0) + (float64(x)+0.5)*sx - 0.5
			dst.Pix[y*dst.Stride+x] = clamp16(naiveBilinearAt(src, srcX, srcY))
		}
	}
	return dst
}

// ---- random-frame generators ----

// randFrame fills a compact w x h frame with deterministic noise.
func randFrame(rng *rand.Rand, w, h int) *Frame {
	f := New(w, h)
	for i := range f.Pix {
		f.Pix[i] = uint16(rng.Intn(65536))
	}
	return f
}

// randROI returns a non-empty SubFrame view of a random parent strictly
// larger than the view, so the view has a non-compact stride and offset
// bounds — the geometry that stresses the interior row-slice arithmetic.
func randROI(rng *rand.Rand, w, h int) *Frame {
	pw := w + 1 + rng.Intn(8)
	ph := h + 1 + rng.Intn(8)
	parent := randFrame(rng, pw, ph)
	x0 := rng.Intn(pw - w + 1)
	y0 := rng.Intn(ph - h + 1)
	return parent.SubFrame(R(x0, y0, x0+w, y0+h))
}

// framedROI returns a w x h view at the origin (margin, margin) of a larger
// parent whose every pixel outside the view is the complement of the view
// pixel nearest to it: a kernel that pads from the parent's storage instead
// of replicating the view's own edge reads a value certain to be wrong.
func framedROI(rng *rand.Rand, w, h, margin int) *Frame {
	parent := randFrame(rng, w+2*margin, h+2*margin)
	view := parent.SubFrame(R(margin, margin, margin+w, margin+h))
	for y := 0; y < parent.Height(); y++ {
		for x := 0; x < parent.Width(); x++ {
			if !view.Bounds.Contains(x, y) {
				parent.Set(x, y, 0xFFFF-view.AtClamped(x, y))
			}
		}
	}
	return view
}

// geometries covers degenerate and awkward shapes: single pixels, single
// rows/columns, shapes thinner than typical kernel radii, and sizes around
// stripe boundaries.
var geometries = [][2]int{
	{1, 1}, {1, 7}, {7, 1}, {2, 2}, {3, 3}, {2, 9}, {9, 2},
	{5, 5}, {8, 3}, {17, 9}, {31, 16}, {32, 32},
}

func frameVariants(rng *rand.Rand, w, h int) []*Frame {
	return []*Frame{randFrame(rng, w, h), randROI(rng, w, h), framedROI(rng, w, h, 2)}
}

func requireEqual(t *testing.T, ctx string, got, want *Frame) {
	t.Helper()
	if got.Width() != want.Width() || got.Height() != want.Height() {
		t.Fatalf("%s: geometry %dx%d, want %dx%d",
			ctx, got.Width(), got.Height(), want.Width(), want.Height())
	}
	for y := 0; y < want.Height(); y++ {
		gr := got.Row(got.Bounds.Y0 + y)
		wr := want.Row(want.Bounds.Y0 + y)
		for x := range wr {
			if gr[x] != wr[x] {
				t.Fatalf("%s: pixel (%d,%d) = %d, want %d", ctx, x, y, gr[x], wr[x])
			}
		}
	}
}

// ---- equivalence tests ----

func TestConvolveMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	kernels := []int{1, 3, 5, 7}
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			for _, side := range kernels {
				w := make([]float64, side*side)
				for i := range w {
					w[i] = rng.Float64()*2 - 0.5
				}
				k, err := NewKernel(w)
				if err != nil {
					t.Fatal(err)
				}
				got := ConvolveInto(nil, src, k)
				requireEqual(t, "convolve", got, naiveConvolve(src, k))
			}
		}
	}
}

func TestGaussianBlurMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	sigmas := []float64{0, 0.4, 1.2, 2.0, 3.7}
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			for _, sigma := range sigmas {
				got := GaussianBlurInto(nil, src, sigma)
				requireEqual(t, "blur", got, naiveGaussianBlur(src, sigma))
			}
		}
	}
	// Radii 0 (sigma <= 0, the kernel {1}) to 6, each on every width and
	// height up to one past the kernel's support — views the padded row and
	// the clamped row ring cover entirely — and on stripe counts up to more
	// than there are rows.
	for _, sigma := range []float64{-1, 0, 0.3, 0.6, 1.0, 1.2, 1.5, 2.0} {
		r := len(GaussianKernel1D(sigma)) / 2
		for w := 1; w <= 2*r+2; w++ {
			for h := 1; h <= 2*r+2; h++ {
				src := framedROI(rng, w, h, r+1)
				want := naiveGaussianBlur(src, sigma)
				for _, k := range []int{1, 2, 3, 4, 8, h + 3} {
					requireEqual(t, fmt.Sprintf("blur sigma %v %dx%d k=%d", sigma, w, h, k),
						GaussianBlurIntoParallel(nil, src, sigma, k), want)
				}
			}
		}
	}
}

// TestGaussianBlurSweepMatchesBlur: the rows the sweep hands over are the
// rows GaussianBlur stores, converted to float64, with the row above the
// first and below the last replicated, for every stripe of every view — the
// stripes of one split covering each row exactly once.
func TestGaussianBlurSweepMatchesBlur(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	for _, sigma := range []float64{0, 0.6, 1.2, 2.0} {
		for _, g := range geometries {
			for _, src := range frameVariants(rng, g[0], g[1]) {
				blur := GaussianBlurInto(nil, src, sigma)
				h := g[1]
				rowOf := func(y int) []uint16 {
					return blur.Row(blur.Bounds.Y0 + min(max(y, 0), h-1))
				}
				for _, k := range []int{1, 2, 3, 4, h + 2} {
					seen := make([]int, h)
					for stripe := 0; stripe < k; stripe++ {
						lo, hi := stripe*h/k, (stripe+1)*h/k
						next := lo
						GaussianBlurSweep(src, sigma, lo, hi, func(y int, up, mid, down []float64) {
							if y != next {
								t.Fatalf("sigma %v %v k=%d: row %d handed over, want %d", sigma, src.Bounds, k, y, next)
							}
							next++
							seen[y]++
							for i, row := range [][]float64{up, mid, down} {
								want := rowOf(y - 1 + i)
								if len(row) != len(want) {
									t.Fatalf("sigma %v %v k=%d row %d: %d floats, want %d", sigma, src.Bounds, k, y, len(row), len(want))
								}
								for x, v := range row {
									if v != float64(want[x]) {
										t.Fatalf("sigma %v %v k=%d row %d%+d x %d: %v, want %d", sigma, src.Bounds, k, y, i-1, x, v, want[x])
									}
								}
							}
						})
					}
					for y, n := range seen {
						if n != 1 {
							t.Fatalf("sigma %v %v k=%d: row %d handed over %d times", sigma, src.Bounds, k, y, n)
						}
					}
				}
			}
		}
	}
}

func TestMedian3x3MatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			requireEqual(t, "median", Median3x3Into(nil, src), naiveMedian3x3(src))
		}
	}
}

func TestSobelMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			requireEqual(t, "sobel", SobelInto(nil, src), naiveSobel(src))
		}
	}
}

func TestResizeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	targets := [][2]int{{1, 1}, {3, 5}, {8, 8}, {13, 4}, {40, 23}}
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			for _, tg := range targets {
				got := Resize(src, tg[0], tg[1])
				requireEqual(t, "resize", got, naiveResize(src, tg[0], tg[1]))
			}
		}
	}
}

func TestPointSamplersMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for _, g := range geometries {
		for _, f := range frameVariants(rng, g[0], g[1]) {
			b := f.Bounds
			// Probe every pixel plus a ring outside the bounds.
			for y := b.Y0 - 2; y < b.Y1+2; y++ {
				for x := b.X0 - 2; x < b.X1+2; x++ {
					if got, want := HessianAt(f, x, y), naiveHessianAt(f, x, y); got != want {
						t.Fatalf("HessianAt(%d,%d) = %+v, want %+v", x, y, got, want)
					}
					ggx, ggy := Gradient(f, x, y)
					wgx, wgy := naiveGradient(f, x, y)
					if ggx != wgx || ggy != wgy {
						t.Fatalf("Gradient(%d,%d) = (%v,%v), want (%v,%v)", x, y, ggx, ggy, wgx, wgy)
					}
					fx := float64(x) + rng.Float64()
					fy := float64(y) + rng.Float64()
					if got, want := BilinearAt(f, fx, fy), naiveBilinearAt(f, fx, fy); got != want {
						t.Fatalf("BilinearAt(%v,%v) = %v, want %v", fx, fy, got, want)
					}
				}
			}
		}
	}
}

// TestIntoVariantsReuseDirtyDst checks that every Into kernel fully
// overwrites a reused destination: leftover garbage from a previous frame
// must never leak into the output, and the destination must actually be
// reused (no hidden allocation swap).
func TestIntoVariantsReuseDirtyDst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	src := randFrame(rng, 19, 13)
	roi := randROI(rng, 19, 13)
	k, err := NewKernel([]float64{0, -1, 0, -1, 5, -1, 0, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	dirty := func() *Frame {
		d := New(19, 13)
		for i := range d.Pix {
			d.Pix[i] = 0xBEEF
		}
		return d
	}
	for _, in := range []*Frame{src, roi} {
		cases := []struct {
			name string
			run  func(dst *Frame) *Frame
			want *Frame
		}{
			{"ConvolveInto", func(d *Frame) *Frame { return ConvolveInto(d, in, k) }, naiveConvolve(in, k)},
			{"GaussianBlurInto", func(d *Frame) *Frame { return GaussianBlurInto(d, in, 1.3) }, naiveGaussianBlur(in, 1.3)},
			{"Median3x3Into", func(d *Frame) *Frame { return Median3x3Into(d, in) }, naiveMedian3x3(in)},
			{"SobelInto", func(d *Frame) *Frame { return SobelInto(d, in) }, naiveSobel(in)},
			{"ResizeInto", func(d *Frame) *Frame { return ResizeInto(d, in, 19, 13) }, naiveResize(in, 19, 13)},
			{"ThresholdInto", func(d *Frame) *Frame { return ThresholdInto(d, in, 30000) }, Threshold(in, 30000)},
			{"InvertInto", func(d *Frame) *Frame { return InvertInto(d, in) }, Invert(in)},
			{"TranslateInto", func(d *Frame) *Frame { return TranslateInto(d, in, 1.7, -0.4) }, Translate(in, 1.7, -0.4)},
		}
		for _, tc := range cases {
			d := dirty()
			got := tc.run(d)
			if got != d {
				t.Errorf("%s: did not reuse matching destination", tc.name)
			}
			requireEqual(t, tc.name, got, tc.want)
		}
	}

	// Mismatched destinations must be replaced, not written out of bounds.
	small := New(3, 3)
	out := ConvolveInto(small, src, k)
	if out == small {
		t.Fatal("ConvolveInto reused a destination with the wrong geometry")
	}
	requireEqual(t, "convolve-mismatch", out, naiveConvolve(src, k))
}

func TestAbsDiffIntoMatchesAbsDiff(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	a := randFrame(rng, 11, 6)
	b := randFrame(rng, 11, 6)
	want, err := AbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	d := New(11, 6)
	for i := range d.Pix {
		d.Pix[i] = 0xBEEF
	}
	got, err := AbsDiffInto(d, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if got != d {
		t.Error("AbsDiffInto did not reuse matching destination")
	}
	requireEqual(t, "absdiff", got, want)
	if _, err := AbsDiffInto(nil, a, randFrame(rng, 5, 5)); err == nil {
		t.Error("AbsDiffInto accepted mismatched bounds")
	}
}

func TestAverageIntoMatchesAverage(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	acc := NewAccumulator(9, 7)
	if acc.AverageInto(nil) != nil {
		t.Fatal("AverageInto before any Add must return nil")
	}
	for i := 0; i < 5; i++ {
		if err := acc.Add(randFrame(rng, 9, 7)); err != nil {
			t.Fatal(err)
		}
	}
	want := acc.Average()
	d := New(9, 7)
	for i := range d.Pix {
		d.Pix[i] = 0xBEEF
	}
	got := acc.AverageInto(d)
	if got != d {
		t.Error("AverageInto did not reuse matching destination")
	}
	requireEqual(t, "average", got, want)
}

// TestMulHighDivisionExact pins the multiply-high average to a plain s/n for
// every frame count n an accumulator reaches, at the sums where a reciprocal
// goes wrong first — either side of exact multiples, around powers of two,
// the largest sum n frames can reach — and on 10^6 random pairs.
func TestMulHighDivisionExact(t *testing.T) {
	check := func(n int, s uint32) {
		m := reciprocal(n)
		if got, want := quotient(s, m), uint16(s/uint32(n)); got != want {
			t.Fatalf("sum %d over %d frames averages to %d, want %d", s, n, got, want)
		}
	}
	for n := 1; n <= AccumulatorMaxFrames; n++ {
		check(n, 0)
		check(n, uint32(n-1))
		check(n, uint32(65535*n))
		for _, q := range []int{1, 2, 3, 255, 256, 257, 32767, 32768, 65534} {
			check(n, uint32(q*n))
			check(n, uint32(q*n+n-1))
		}
	}
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 1_000_000; i++ {
		n := 1 + rng.Intn(AccumulatorMaxFrames)
		check(n, uint32(rng.Int63n(int64(65535*n)+1)))
	}
}

func TestParallelVariantsMatchSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			for _, stripes := range []int{1, 2, 3, 8, g[1] + 5} {
				requireEqual(t, "blur-parallel",
					GaussianBlurIntoParallel(nil, src, 1.2, stripes), GaussianBlurInto(nil, src, 1.2))
				requireEqual(t, "resize-parallel",
					ResizeIntoParallel(nil, src, 10, 10, stripes), Resize(src, 10, 10))
			}
		}
	}
}

// ---- pool sanity ----

func TestPoolRecyclesZeroed(t *testing.T) {
	var p Pool
	f := p.Get(16, 8)
	if f.Width() != 16 || f.Height() != 8 || f.Stride != 16 {
		t.Fatalf("bad pooled geometry: %dx%d stride %d", f.Width(), f.Height(), f.Stride)
	}
	for i := range f.Pix {
		f.Pix[i] = 0xAAAA
	}
	p.Put(f)
	g := p.Get(16, 8)
	for i, v := range g.Pix {
		if v != 0 {
			t.Fatalf("Get returned dirty pixel %d = %#x", i, v)
		}
	}
	// A smaller request may reuse the same storage; geometry must be exact.
	p.Put(g)
	h := p.Get(3, 3)
	if h.Width() != 3 || h.Height() != 3 || len(h.Pix) != 9 || h.Stride != 3 {
		t.Fatalf("bad reshaped geometry: %dx%d stride %d len %d",
			h.Width(), h.Height(), h.Stride, len(h.Pix))
	}
	for i, v := range h.Pix {
		if v != 0 {
			t.Fatalf("reshaped Get returned dirty pixel %d = %#x", i, v)
		}
	}
}

func TestPoolDegenerateSizes(t *testing.T) {
	var p Pool
	z := p.Get(0, 0)
	if z.Pixels() != 0 {
		t.Fatal("zero-size Get must return an empty frame")
	}
	p.Put(z)   // no-op
	p.Put(nil) // no-op
	one := p.Get(1, 1)
	if len(one.Pix) != 1 {
		t.Fatalf("1x1 Get returned %d pixels", len(one.Pix))
	}
	p.Put(one)
}

func TestBorrowReleaseRoundTrip(t *testing.T) {
	f := Borrow(12, 5)
	for _, v := range f.Pix {
		if v != 0 {
			t.Fatal("Borrow returned dirty frame")
		}
	}
	f.Fill(0x1234)
	Release(f)
	g := Borrow(12, 5)
	for _, v := range g.Pix {
		if v != 0 {
			t.Fatal("Borrow after Release returned dirty frame")
		}
	}
	u := BorrowUninit(12, 5)
	if u.Width() != 12 || u.Height() != 5 {
		t.Fatal("BorrowUninit bad geometry")
	}
	Release(g)
	Release(u)
}

// naiveLabelComponents is LabelComponents as it was before the seen map was
// pooled and the scan row-sliced: a fresh label image and an At per pixel.
func naiveLabelComponents(mask, src *Frame, minSize int) []Component {
	if src == nil {
		src = mask
	}
	b := mask.Bounds
	w, h := b.Width(), b.Height()
	if w == 0 || h == 0 {
		return nil
	}
	labels := make([]int32, w*h)
	var comps []Component
	stack := make([][2]int, 0, 64)
	next := int32(1)
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			if labels[y*w+x] != 0 || mask.At(b.X0+x, b.Y0+y) == 0 {
				continue
			}
			id := next
			next++
			c := Component{BBox: Rect{b.X0 + x, b.Y0 + y, b.X0 + x + 1, b.Y0 + y + 1}}
			var sumX, sumY, sumV float64
			stack = stack[:0]
			stack = append(stack, [2]int{x, y})
			labels[y*w+x] = id
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				px, py := p[0], p[1]
				gx, gy := b.X0+px, b.Y0+py
				c.Size++
				sumX += float64(gx)
				sumY += float64(gy)
				sumV += float64(src.AtClamped(gx, gy))
				c.BBox = c.BBox.Union(Rect{gx, gy, gx + 1, gy + 1})
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := px+d[0], py+d[1]
					if nx < 0 || nx >= w || ny < 0 || ny >= h {
						continue
					}
					if labels[ny*w+nx] != 0 || mask.At(b.X0+nx, b.Y0+ny) == 0 {
						continue
					}
					labels[ny*w+nx] = id
					stack = append(stack, [2]int{nx, ny})
				}
			}
			if c.Size < minSize {
				continue
			}
			c.CX = sumX / float64(c.Size)
			c.CY = sumY / float64(c.Size)
			c.MeanVal = sumV / float64(c.Size)
			if a := c.BBox.Area(); a > 0 {
				c.Compact = float64(c.Size) / float64(a)
			}
			comps = append(comps, c)
		}
	}
	return comps
}

// TestLabelComponentsMatchesNaive: same components in the same order with
// the same sums, on compact masks, SubFrame masks of every density, sources
// that share the mask's bounds or do not, with the pooled seen map handed
// back dirty from a call of another size, and with component and stack
// buffers reused dirty from the call before, appended after a kept prefix.
func TestLabelComponentsMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	var buf []Component
	var stack [][2]int
	prefix := Component{Size: -1}
	sizes := append([][2]int{{64, 48}, {48, 64}}, geometries...)
	for round := 0; round < 3; round++ {
		for _, g := range sizes {
			for vi, mask := range frameVariants(rng, g[0], g[1]) {
				// Thin the random pixels to blobs: 7, 4 and 1 in 8 stay set.
				density := []int{7, 4, 1}[round]
				for y := mask.Bounds.Y0; y < mask.Bounds.Y1; y++ {
					row := mask.Row(y)
					for x := range row {
						if rng.Intn(8) >= density {
							row[x] = 0
						}
					}
				}
				dirty := Borrow(g[0], g[1])
				dirty.Fill(0xFFFF)
				Release(dirty)
				other := randFrame(rng, g[0], g[1])
				other.Bounds = mask.Bounds
				for si, src := range []*Frame{nil, other, randFrame(rng, g[0]+1, g[1])} {
					minSize := 1 + rng.Intn(3)
					buf, stack = LabelComponents(append(buf[:0], prefix), stack, mask, src, minSize)
					got, want := buf[1:], naiveLabelComponents(mask, src, minSize)
					if buf[0] != prefix || !slices.Equal(got, want) {
						t.Fatalf("%dx%d variant %d source %d density %d/8: components differ\n got %+v\nwant %+v",
							g[0], g[1], vi, si, density, got, want)
					}
				}
			}
		}
	}
}
