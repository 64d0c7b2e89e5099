package frame

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"triplec/internal/parallel"
)

// The table-driven resampler is checked against the point sampler it
// replaced in the pixel loops: pixel (x, y) of the destination must equal
// clamp16(BilinearAt(src, cx[x], cy[y])) for whatever coordinates the caller
// built its taps from.

// tapsOf builds the tap tables of the coordinates cx and cy on src.
func tapsOf(src *Frame, cx, cy []float64) (xs, ys []Tap) {
	xs, ys = make([]Tap, len(cx)), make([]Tap, len(cy))
	for i, c := range cx {
		xs[i] = src.XTap(c)
	}
	for i, c := range cy {
		ys[i] = src.YTap(c)
	}
	return xs, ys
}

// resampleVia runs ResampleRows over taps built from cx, cy into a view of a
// dirty parent (so the destination's stride exceeds its width), one call per
// stripe between the ascending cuts, and reports whether the parent's pixels
// around the view were left alone.
func resampleVia(src *Frame, cx, cy []float64, cuts ...int) (dst *Frame, contained bool) {
	xs, ys := tapsOf(src, cx, cy)
	parent := New(len(cx)+3, len(cy)+2)
	parent.Fill(0xABCD)
	dst = parent.SubFrame(R(2, 1, 2+len(cx), 1+len(cy)))
	lo := 0
	for _, hi := range append(cuts, len(cy)) {
		ResampleRows(dst, src, xs, ys, lo, hi)
		lo = hi
	}
	contained = true
	for y := 0; y < parent.Height(); y++ {
		for x := 0; x < parent.Width(); x++ {
			if !dst.Bounds.Contains(x, y) && parent.At(x, y) != 0xABCD {
				contained = false
			}
		}
	}
	return dst, contained
}

// requireResample checks both sinks of the row kernel against the point
// sampler: ResampleRows (two stripes with a seam, exercising the row-range
// arguments) pixel for pixel, SampleRows bit for bit.
func requireResample(t *testing.T, ctx string, src *Frame, cx, cy []float64) {
	t.Helper()
	got, contained := resampleVia(src, cx, cy, len(cy)/2)
	if !contained {
		t.Fatalf("%s: wrote outside the destination view", ctx)
	}
	xs, ys := tapsOf(src, cx, cy)
	raw := make([]float64, len(cx)*len(cy)+1)
	raw[len(raw)-1] = -1
	ring := make([]float64, 4*len(cx)+1)
	ring[len(ring)-1] = -1
	SampleRows(raw, ring, src, xs, ys)
	if raw[len(raw)-1] != -1 || ring[len(ring)-1] != -1 {
		t.Fatalf("%s: SampleRows wrote past its rows", ctx)
	}
	for y, sy := range cy {
		row := got.Row(got.Bounds.Y0 + y)
		for x, sx := range cx {
			want := BilinearAt(src, sx, sy)
			if row[x] != clamp16(want) {
				t.Fatalf("%s: src %v stride %d: pixel (%d,%d) sampled at (%v,%v) = %d, want %d",
					ctx, src.Bounds, src.Stride, x, y, sx, sy, row[x], clamp16(want))
			}
			if v := raw[y*len(cx)+x]; math.Float64bits(v) != math.Float64bits(want) {
				t.Fatalf("%s: src %v stride %d: sample (%d,%d) at (%v,%v) = %v, want %v",
					ctx, src.Bounds, src.Stride, x, y, sx, sy, v, want)
			}
		}
	}
}

// affine returns n coordinates a + b*i.
func affine(n int, a, b float64) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + b*float64(i)
	}
	return out
}

func TestResampleRowsMatchesBilinearAt(t *testing.T) {
	rng := rand.New(rand.NewSource(16))
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			b := src.Bounds
			x0, y0 := float64(b.X0), float64(b.Y0)
			w, h := float64(b.Width()), float64(b.Height())
			cases := []struct {
				name   string
				cx, cy []float64
			}{
				{"identity", affine(g[0], x0, 1), affine(g[1], y0, 1)},
				{"inside", affine(9, x0+0.25, (w-1)/9), affine(7, y0+0.6, (h-1)/7)},
				{"upscale", affine(3*g[0], x0-0.33, 1.0/3), affine(2*g[1], y0-0.25, 0.5)},
				{"downscale", affine(g[0]/2+1, x0+0.5, 2), affine(g[1]/3+1, y0+1, 3)},
				// Every tap ½ and ½ on both axes — the integer path of an
				// exact 2:1 or 4:1 downsample — clamped borders included.
				{"half", affine(g[0]/2+2, x0-1.5, 2), affine(g[1]/4+2, y0-2.5, 4)},
				{"half-x", affine(g[0]/2+1, x0+0.5, 2), affine(g[1], y0+0.25, 1)},
				{"straddle", affine(g[0]+8, x0-4.3, 1.1), affine(g[1]+8, y0-3.7, 1.2)},
				{"mirrored", affine(g[0]+2, x0+w, -1.05), affine(g[1]+2, y0+h, -0.95)},
				{"mirrored-rows", affine(g[0], x0+0.3, 1), affine(2*g[1], y0+h-0.5, -0.5)},
				// One source-row pair for eight destination rows, then the next.
				{"repeat8", affine(8*g[0], x0-0.5, 0.125), affine(8*g[1], y0-0.5, 0.125)},
				{"skip", affine(g[0]/3+2, x0-0.2, 1/0.3), affine(g[1]/3+2, y0+0.1, 1/0.3)},
				{"constant", affine(5, x0+w/2+0.25, 0), affine(6, y0+h/2+0.75, 0)},
				// Rows revisited out of order: a miss must never evict the
				// row the same destination row still needs.
				{"zigzag", affine(g[0], x0, 1), []float64{y0 + 1.5, y0 + 0.5, y0 + 2.5, y0 + 0.5, y0 + 1.5, y0 - 0.5, y0 + 2.5, y0 + 1.5}},
				// I0 == I1 on all four borders, beside their unclamped neighbours.
				{"borders", []float64{x0 - 2, x0 - 0.5, x0, x0 + w - 1.5, x0 + w - 1, x0 + w - 0.5, x0 + w + 3},
					[]float64{y0 + h + 3, y0 + h - 0.5, y0 + h - 1, y0 + h - 1.5, y0, y0 - 0.5, y0 - 2}},
				{"far", []float64{-1e18, -1e9, x0 - 1, x0, x0 + w - 1, x0 + w, 1e9, 1e18},
					[]float64{1e18, y0 + h - 0.5, y0 - 0.5, -1e18}},
				{"int-edges", []float64{math.MinInt64, -math.MaxUint32, math.MaxUint32, math.MaxInt64 - 1024},
					[]float64{math.MaxInt32 + 0.5, math.MinInt32 - 0.5}},
			}
			for _, tc := range cases {
				requireResample(t, tc.name, src, tc.cx, tc.cy)
			}
		}
	}
}

// TestResampleRowsStripesEqualWhole: every split of the destination rows into
// two and into three stripes gives the picture one call gives — a stripe
// fills its own ring, whatever the rows before it left behind.
func TestResampleRowsStripesEqualWhole(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	src := randROI(rng, 9, 7)
	x0, y0 := float64(src.Bounds.X0), float64(src.Bounds.Y0)
	for _, step := range []float64{0.125, 0.7, 1, 2.9, -0.6} {
		const rows = 11
		start := y0 - 0.75
		if step < 0 {
			start = y0 + 7.25
		}
		cx, cy := affine(13, x0-0.4, 0.7), affine(rows, start, step)
		whole, _ := resampleVia(src, cx, cy)
		for a := 0; a <= rows; a++ {
			for b := a; b <= rows; b++ {
				got, contained := resampleVia(src, cx, cy, a, b)
				if !contained {
					t.Fatalf("step %v cuts %d,%d: wrote outside the destination view", step, a, b)
				}
				requireEqual(t, fmt.Sprintf("step %v cuts %d,%d", step, a, b), got, whole)
			}
		}
	}
}

// FuzzResample drives the resampler with arbitrary source windows and
// affine coordinate ramps — the shape every caller builds — and checks it
// against BilinearAt, so a tap that wraps instead of clamping, or a row
// offset that ignores Stride or Bounds, shows as a wrong pixel or a panic.
func FuzzResample(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(0), uint8(0), uint8(8), uint8(8), uint8(8), uint8(8), int64(1), 0.0, 1.0, 0.0, 1.0)
	f.Add(uint8(16), uint8(9), uint8(3), uint8(2), uint8(7), uint8(5), uint8(20), uint8(3), int64(2), 2.5, 0.37, 1.5, 2.2)
	f.Add(uint8(5), uint8(5), uint8(1), uint8(1), uint8(3), uint8(3), uint8(6), uint8(6), int64(3), -1e18, 4e17, 1e18, -4e17)
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(4), uint8(4), int64(4), -3.0, 2.0, 9.0, -3.0)
	f.Add(uint8(33), uint8(2), uint8(30), uint8(1), uint8(3), uint8(1), uint8(9), uint8(2), int64(5), 29.5, 1e-9, 0.999999, 1e-12)
	// The ring's cases: rows repeated 8x, rows skipped (0.3x), constant
	// tables, both axes mirrored, a clamped border at every edge.
	f.Add(uint8(12), uint8(12), uint8(0), uint8(0), uint8(12), uint8(12), uint8(39), uint8(39), int64(6), -0.5, 0.125, -0.5, 0.125)
	f.Add(uint8(40), uint8(40), uint8(2), uint8(3), uint8(30), uint8(31), uint8(11), uint8(11), int64(7), 1.8, 3.3333, 3.1, 3.3333)
	f.Add(uint8(9), uint8(9), uint8(1), uint8(1), uint8(6), uint8(6), uint8(7), uint8(7), int64(8), 3.25, 0.0, 4.75, 0.0)
	f.Add(uint8(20), uint8(16), uint8(4), uint8(2), uint8(10), uint8(9), uint8(24), uint8(22), int64(9), 15.5, -0.55, 12.5, -0.6)
	f.Add(uint8(6), uint8(5), uint8(1), uint8(1), uint8(4), uint8(3), uint8(14), uint8(12), int64(10), -1.5, 0.5, -1.5, 0.5)
	// All-½ tap tables: 2:1 and 4:1 downsamples, half-pixel ramps with an
	// integer step that overhang the view, and constant half-pixel tables.
	f.Add(uint8(16), uint8(16), uint8(0), uint8(0), uint8(16), uint8(16), uint8(8), uint8(8), int64(11), 0.5, 2.0, 0.5, 2.0)
	f.Add(uint8(32), uint8(20), uint8(3), uint8(2), uint8(25), uint8(17), uint8(7), uint8(5), int64(12), 4.5, 4.0, 3.5, 4.0)
	f.Add(uint8(7), uint8(9), uint8(1), uint8(2), uint8(5), uint8(6), uint8(12), uint8(11), int64(13), -3.5, 1.0, 8.5, -1.0)
	f.Add(uint8(4), uint8(4), uint8(0), uint8(0), uint8(4), uint8(4), uint8(5), uint8(3), int64(14), 1.5, 0.0, 2.5, 0.0)

	f.Fuzz(func(t *testing.T, pw, ph, rx, ry, rw, rh, dw, dh uint8, seed int64, ax, bx, ay, by float64) {
		for _, v := range []*float64{&ax, &bx, &ay, &by} {
			// Keeps a + b*i inside ±1e18: int(math.Floor(c)) is
			// implementation-defined once c leaves the int64 range.
			if math.IsNaN(*v) || math.Abs(*v) > 1e16 {
				*v = math.Mod(*v, 1e16)
				if math.IsNaN(*v) {
					*v = 0.5
				}
			}
		}
		w, h := int(pw)%48+1, int(ph)%48+1
		parent := randFrame(rand.New(rand.NewSource(seed)), w, h)
		x0, y0 := int(rx)%w, int(ry)%h
		x1, y1 := x0+int(rw)%(w-x0)+1, y0+int(rh)%(h-y0)+1
		cx, cy := affine(int(dw)%40+1, ax, bx), affine(int(dh)%40+1, ay, by)
		for _, src := range []*Frame{parent, parent.SubFrame(R(x0, y0, x1, y1))} {
			requireResample(t, "fuzz", src, cx, cy)
		}
	})
}

// TestTranslateMatchesBilinearAt pins Translate's coordinate builder to the
// expression its pixel loop used to evaluate (TestResizeMatchesNaive does
// the same for Resize).
func TestTranslateMatchesBilinearAt(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			for _, d := range [][2]float64{{0, 0}, {1.7, -0.4}, {-0.25, 3}, {1e18, -1e18}} {
				want := New(g[0], g[1])
				for y := 0; y < g[1]; y++ {
					for x := 0; x < g[0]; x++ {
						want.Pix[y*g[0]+x] = clamp16(BilinearAt(src,
							float64(src.Bounds.X0+x)-d[0], float64(src.Bounds.Y0+y)-d[1]))
					}
				}
				got := Translate(src, d[0], d[1])
				if got.Bounds != src.Bounds {
					t.Fatalf("translate: bounds %v, want %v", got.Bounds, src.Bounds)
				}
				requireEqual(t, "translate", got, want)
			}
		}
	}
}

// TestResizeSameSizeIsCopy: an identity-scale resize is a row copy, and that
// copy is what the bilinear expression evaluates to.
func TestResizeSameSizeIsCopy(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for _, g := range geometries {
		for _, src := range frameVariants(rng, g[0], g[1]) {
			dirty := New(g[0], g[1])
			dirty.Fill(0xABCD)
			got := ResizeInto(dirty, src, g[0], g[1])
			if got != dirty {
				t.Fatal("matching destination not reused")
			}
			if want := (Rect{0, 0, g[0], g[1]}); got.Bounds != want {
				t.Fatalf("bounds %v, want %v", got.Bounds, want)
			}
			requireEqual(t, "copy", got, src.Clone())
			requireEqual(t, "bilinear", got, naiveResize(src, g[0], g[1]))
		}
	}
}

// integrateBoth adds the resample of src at the coordinates cx, cy to fused
// through AddResampledInto, into the reused destination avg (nil at first),
// and to plain through the oracle — ResampleRows into a frame, then
// AddAverageInto — and fails unless the averages, the sums and the frame
// counts agree. It returns fused's average.
func integrateBoth(t *testing.T, ctx string, fused, plain *Accumulator, avg, src *Frame, cx, cy []float64) *Frame {
	t.Helper()
	xs, ys := tapsOf(src, cx, cy)
	canvas := New(len(cx), len(cy))
	ResampleRows(canvas, src, xs, ys, 0, len(cy))
	want, err := plain.AddAverageInto(nil, canvas)
	if err != nil {
		t.Fatal(err)
	}
	got := fused.AddResampledInto(avg, src, xs, ys, nil)
	if avg != nil && got != avg {
		t.Fatalf("%s: destination not reused", ctx)
	}
	if fused.Frames() != plain.Frames() {
		t.Fatalf("%s: %d frames integrated, want %d", ctx, fused.Frames(), plain.Frames())
	}
	requireEqual(t, ctx, got, want)
	if !slices.Equal(fused.sum, plain.sum) {
		t.Fatalf("%s: sums differ from the oracle's", ctx)
	}
	return got
}

// TestAddResampledIntoMatchesOracle: the fused sink integrates what
// ResampleRows would have stored, frame after frame, on canvases magnifying,
// shrinking, overhanging and wholly outside their sources, with saturated
// frames pushing the sums and a Reset partway.
func TestAddResampledIntoMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, c := range [][2]int{{13, 7}, {1, 1}, {40, 3}, {5, 33}} {
		fused, plain := NewAccumulator(c[0], c[1]), NewAccumulator(c[0], c[1])
		var avg *Frame
		for i := 0; i < 120; i++ {
			g := geometries[i%len(geometries)]
			src := frameVariants(rng, g[0], g[1])[i%3]
			if i%10 == 9 {
				src.Fill(0xFFFF) // saturated frames push the sums hardest
			}
			x0, y0 := float64(src.Bounds.X0), float64(src.Bounds.Y0)
			drift := 0.37 * float64(i%17)
			var cx, cy []float64
			switch i % 5 {
			case 0: // magnifies
				cx, cy = affine(c[0], x0-0.3+drift/8, 0.21), affine(c[1], y0+0.45, 0.33)
			case 1: // shrinks
				cx, cy = affine(c[0], x0+0.1, 2.7), affine(c[1], y0-0.6+drift, 1.9)
			case 2: // overhangs every edge
				cx, cy = affine(c[0], x0-4.5-drift, 1.3), affine(c[1], y0-3.25, 1.6)
			case 3: // wholly outside
				cx, cy = affine(c[0], -900+drift, 0.8), affine(c[1], 1e6, 1.1)
			default: // ½ and ½ taps
				cx, cy = affine(c[0], x0-0.5, 1), affine(c[1], y0+0.5, 2)
			}
			if i == 70 {
				fused.Reset()
				plain.Reset()
			}
			avg = integrateBoth(t, fmt.Sprintf("canvas %v frame %d", c, i), fused, plain, avg, src, cx, cy)
		}
	}
	defer func() {
		if recover() == nil {
			t.Fatal("tap tables of another size must panic")
		}
	}()
	src := New(4, 4)
	xs, ys := tapsOf(src, affine(3, 0, 1), affine(4, 0, 1))
	NewAccumulator(4, 4).AddResampledInto(nil, src, xs, ys, nil)
}

// TestHostStripeAccumulatorMatchesInline: AddResampledInto striped over 2
// and 3 host stripes integrates exactly what the inline call does, frame
// after frame, on canvases of odd heights that magnify (neighbouring rows,
// split between stripes, share source rows in the ring), shrink and
// overhang, with a Reset partway.
func TestHostStripeAccumulatorMatchesInline(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, k := range []int{2, 3} {
		hs := parallel.NewHostStripes(k)
		for _, c := range [][2]int{{181, 97}, {211, 127}} {
			inline, striped := NewAccumulator(c[0], c[1]), NewAccumulator(c[0], c[1])
			var avgI, avgS *Frame
			for i := 0; i < 40; i++ {
				src := randFrame(rng, 96+i%5, 80+i%7)
				var cx, cy []float64
				switch i % 3 {
				case 0: // magnifies
					cx, cy = affine(c[0], -0.3+float64(i)/50, 0.41), affine(c[1], 0.45, 0.23)
				case 1: // shrinks
					cx, cy = affine(c[0], 0.1, 0.6), affine(c[1], -0.6, 0.9)
				default: // overhangs every edge
					cx, cy = affine(c[0], -4.5, 0.7), affine(c[1], -3.25, 1.1)
				}
				if i == 25 {
					inline.Reset()
					striped.Reset()
				}
				xs, ys := tapsOf(src, cx, cy)
				avgI = inline.AddResampledInto(avgI, src, xs, ys, nil)
				avgS = striped.AddResampledInto(avgS, src, xs, ys, hs)
				ctx := fmt.Sprintf("%d stripes, canvas %v, frame %d", k, c, i)
				requireEqual(t, ctx, avgS, avgI)
				if !slices.Equal(striped.sum, inline.sum) || striped.Frames() != inline.Frames() {
					t.Fatalf("%s: sums or frame counts differ", ctx)
				}
			}
		}
		hs.Close()
	}
}

// FuzzEnhance drives the fused sink through 1 to 300 integrated frames of
// arbitrary source windows, canvases and drifting coordinate ramps —
// magnifying, shrinking and overhanging — against the oracle.
func FuzzEnhance(f *testing.F) {
	f.Add(uint8(16), uint8(16), uint8(0), uint8(0), uint8(16), uint8(16), uint8(12), uint8(9), uint16(40), int64(1), -2.0, 0.4, 1.5, 1.3, 0.05)
	f.Add(uint8(40), uint8(30), uint8(5), uint8(3), uint8(20), uint8(17), uint8(33), uint8(20), uint16(299), int64(2), 3.5, 0.6, -6.0, 1.05, -0.3)
	f.Add(uint8(9), uint8(9), uint8(1), uint8(1), uint8(6), uint8(6), uint8(7), uint8(7), uint16(3), int64(3), -1e6, 1.0, 4e5, -2.5, 1e3)
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), uint8(1), uint8(1), uint16(0), int64(4), 0.0, 0.0, 0.0, 0.0, 0.0)
	f.Add(uint8(24), uint8(24), uint8(2), uint8(2), uint8(18), uint8(18), uint8(39), uint8(39), uint16(150), int64(5), 1.25, 0.5, 1.75, 0.5, 0.125)

	f.Fuzz(func(t *testing.T, pw, ph, rx, ry, rw, rh, cw, ch uint8, frames uint16, seed int64, ax, bx, ay, by, drift float64) {
		for _, v := range []*float64{&ax, &bx, &ay, &by, &drift} {
			// Keeps every coordinate inside ±1e18, as FuzzResample does.
			if math.IsNaN(*v) || math.Abs(*v) > 1e15 {
				*v = math.Mod(*v, 1e15)
				if math.IsNaN(*v) {
					*v = 0.5
				}
			}
		}
		rng := rand.New(rand.NewSource(seed))
		w, h := int(pw)%48+1, int(ph)%48+1
		x0, y0 := int(rx)%w, int(ry)%h
		view := R(x0, y0, x0+int(rw)%(w-x0)+1, y0+int(rh)%(h-y0)+1)
		cw, ch = cw%40+1, ch%40+1
		fused, plain := NewAccumulator(int(cw), int(ch)), NewAccumulator(int(cw), int(ch))
		var avg *Frame
		for k := 0; k <= int(frames)%300; k++ {
			src := randFrame(rng, w, h)
			if k%7 == 6 {
				src.Fill(0xFFFF)
			}
			if k%2 == 1 {
				src = src.SubFrame(view)
			}
			d := drift * float64(k)
			avg = integrateBoth(t, fmt.Sprintf("frame %d", k), fused, plain, avg, src,
				affine(int(cw), ax+d, bx), affine(int(ch), ay-d, by))
		}
	})
}
