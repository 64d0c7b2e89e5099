package frame

import (
	"math"
	"testing"
	"testing/quick"
)

func TestRectBasics(t *testing.T) {
	r := R(1, 2, 5, 7)
	if r.Width() != 4 || r.Height() != 5 || r.Area() != 20 {
		t.Fatalf("rect geometry wrong: %v", r)
	}
	if r.Empty() {
		t.Fatal("non-empty rect reported empty")
	}
	if !r.Contains(1, 2) || r.Contains(5, 7) {
		t.Fatal("Contains must be half-open")
	}
}

func TestRectEmpty(t *testing.T) {
	r := R(5, 5, 5, 9)
	if !r.Empty() || r.Width() != 0 {
		t.Fatalf("degenerate rect: %v", r)
	}
	inv := R(5, 5, 2, 2)
	if inv.Width() != 0 || inv.Height() != 0 {
		t.Fatal("inverted rect must report zero extents")
	}
}

func TestRectIntersect(t *testing.T) {
	a, b := R(0, 0, 10, 10), R(5, 5, 15, 15)
	got := a.Intersect(b)
	if got != R(5, 5, 10, 10) {
		t.Fatalf("Intersect = %v", got)
	}
	disjoint := a.Intersect(R(20, 20, 30, 30))
	if !disjoint.Empty() {
		t.Fatalf("disjoint intersect not empty: %v", disjoint)
	}
}

func TestRectUnion(t *testing.T) {
	a, b := R(0, 0, 2, 2), R(5, 5, 6, 6)
	if got := a.Union(b); got != R(0, 0, 6, 6) {
		t.Fatalf("Union = %v", got)
	}
	if got := (Rect{}).Union(b); got != b {
		t.Fatalf("empty union identity broken: %v", got)
	}
	if got := b.Union(Rect{}); got != b {
		t.Fatalf("union with empty identity broken: %v", got)
	}
}

func TestRectInset(t *testing.T) {
	r := R(0, 0, 10, 10).Inset(2)
	if r != R(2, 2, 8, 8) {
		t.Fatalf("Inset = %v", r)
	}
	collapsed := R(0, 0, 4, 4).Inset(3)
	if !collapsed.Empty() {
		t.Fatalf("over-inset must collapse: %v", collapsed)
	}
}

func TestRectClampTo(t *testing.T) {
	bounds := R(0, 0, 100, 100)
	r := R(-10, 95, 10, 115).ClampTo(bounds)
	if r.Width() != 20 || r.Height() != 20 {
		t.Fatalf("ClampTo must preserve size: %v", r)
	}
	if r.X0 < 0 || r.Y1 > 100 {
		t.Fatalf("ClampTo out of bounds: %v", r)
	}
	big := R(0, 0, 200, 50).ClampTo(bounds)
	if big.Width() != 100 {
		t.Fatalf("oversized rect must shrink: %v", big)
	}
}

func TestNewFrame(t *testing.T) {
	f := New(8, 4)
	if f.Width() != 8 || f.Height() != 4 || f.Pixels() != 32 {
		t.Fatalf("frame geometry wrong")
	}
	if f.SizeBytes() != 64 {
		t.Fatalf("SizeBytes = %d, want 64", f.SizeBytes())
	}
}

func TestNewFramePanicsOnNegative(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1, 2) did not panic")
		}
	}()
	New(-1, 2)
}

func TestFromPix(t *testing.T) {
	pix := []uint16{1, 2, 3, 4, 5, 6}
	f, err := FromPix(pix, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if f.At(2, 1) != 6 {
		t.Fatalf("At(2,1) = %d, want 6", f.At(2, 1))
	}
	if _, err := FromPix(pix, 4, 2); err == nil {
		t.Fatal("expected length-mismatch error")
	}
}

func TestAtSetBounds(t *testing.T) {
	f := New(4, 4)
	f.Set(1, 2, 77)
	if f.At(1, 2) != 77 {
		t.Fatal("Set/At round trip failed")
	}
	if f.At(-1, 0) != 0 || f.At(4, 0) != 0 {
		t.Fatal("out-of-bounds At must return 0")
	}
	f.Set(10, 10, 9) // must not panic
}

func TestAtClamped(t *testing.T) {
	f := New(3, 3)
	f.Set(0, 0, 10)
	f.Set(2, 2, 20)
	if f.AtClamped(-5, -5) != 10 {
		t.Fatal("clamp to top-left failed")
	}
	if f.AtClamped(9, 9) != 20 {
		t.Fatal("clamp to bottom-right failed")
	}
	var empty Frame
	if empty.AtClamped(0, 0) != 0 {
		t.Fatal("empty frame AtClamped must be 0")
	}
}

func TestFillAndMeanValue(t *testing.T) {
	f := New(5, 5)
	f.Fill(100)
	if f.MeanValue() != 100 {
		t.Fatalf("MeanValue = %v", f.MeanValue())
	}
	var empty Frame
	if empty.MeanValue() != 0 {
		t.Fatal("empty MeanValue must be 0")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := New(4, 4)
	f.Set(2, 2, 9)
	g := f.Clone()
	g.Set(2, 2, 5)
	if f.At(2, 2) != 9 {
		t.Fatal("Clone must not share storage")
	}
	if !f.Equal(f.Clone()) {
		t.Fatal("Clone must be Equal to source")
	}
}

func TestSubFrameSharesStorage(t *testing.T) {
	f := New(10, 10)
	sub := f.SubFrame(R(2, 3, 6, 8))
	sub.Set(2, 3, 42)
	if f.At(2, 3) != 42 {
		t.Fatal("SubFrame must alias parent pixels")
	}
	if sub.Width() != 4 || sub.Height() != 5 {
		t.Fatalf("SubFrame geometry: %v", sub.Bounds)
	}
	// Clipped to parent.
	clipped := f.SubFrame(R(8, 8, 20, 20))
	if clipped.Width() != 2 {
		t.Fatalf("SubFrame clipping failed: %v", clipped.Bounds)
	}
	empty := f.SubFrame(R(50, 50, 60, 60))
	if !empty.Bounds.Empty() {
		t.Fatal("disjoint SubFrame must be empty")
	}
}

func TestSubFrameCloneCompacts(t *testing.T) {
	f := New(10, 10)
	f.Set(5, 5, 123)
	sub := f.SubFrame(R(4, 4, 8, 8))
	c := sub.Clone()
	if c.At(5, 5) != 123 {
		t.Fatalf("cloned subframe lost pixel: %d", c.At(5, 5))
	}
	if c.Stride != 4 {
		t.Fatalf("clone stride = %d, want compact 4", c.Stride)
	}
}

func TestRow(t *testing.T) {
	f := New(3, 2)
	f.Set(1, 1, 7)
	row := f.Row(1)
	if len(row) != 3 || row[1] != 7 {
		t.Fatalf("Row = %v", row)
	}
	if f.Row(5) != nil || f.Row(-1) != nil {
		t.Fatal("out-of-range Row must be nil")
	}
}

func TestMinMax(t *testing.T) {
	f := New(2, 2)
	f.Set(0, 0, 5)
	f.Set(1, 1, 500)
	lo, hi := f.MinMax()
	if lo != 0 || hi != 500 {
		t.Fatalf("MinMax = %d, %d", lo, hi)
	}
	var empty Frame
	lo, hi = empty.MinMax()
	if lo != 0 || hi != 0 {
		t.Fatal("empty MinMax must be 0,0")
	}
}

func TestEqual(t *testing.T) {
	a, b := New(2, 2), New(2, 2)
	if !a.Equal(b) {
		t.Fatal("identical frames not Equal")
	}
	b.Set(0, 0, 1)
	if a.Equal(b) {
		t.Fatal("different frames reported Equal")
	}
	c := New(3, 2)
	if a.Equal(c) {
		t.Fatal("different bounds reported Equal")
	}
}

func TestNewKernelValidation(t *testing.T) {
	if _, err := NewKernel(make([]float64, 9)); err != nil {
		t.Fatalf("3x3 kernel rejected: %v", err)
	}
	if _, err := NewKernel(make([]float64, 4)); err == nil {
		t.Fatal("2x2 kernel accepted")
	}
	if _, err := NewKernel(make([]float64, 8)); err == nil {
		t.Fatal("non-square kernel accepted")
	}
	if _, err := NewKernel(nil); err == nil {
		t.Fatal("empty kernel accepted")
	}
}

func TestConvolveIdentity(t *testing.T) {
	f := New(6, 6)
	f.Set(3, 3, 1000)
	id, _ := NewKernel([]float64{0, 0, 0, 0, 1, 0, 0, 0, 0})
	g := ConvolveInto(nil, f, id)
	if !f.Equal(g) {
		t.Fatal("identity kernel must preserve the frame")
	}
}

func TestConvolveBoxSmooths(t *testing.T) {
	f := New(5, 5)
	f.Set(2, 2, 900)
	box, _ := NewKernel([]float64{
		1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 9, 1.0 / 9, 1.0 / 9,
		1.0 / 9, 1.0 / 9, 1.0 / 9,
	})
	g := ConvolveInto(nil, f, box)
	if g.At(2, 2) != 100 {
		t.Fatalf("box blur center = %d, want 100", g.At(2, 2))
	}
	if g.At(1, 1) != 100 {
		t.Fatalf("box blur neighbor = %d, want 100", g.At(1, 1))
	}
}

func TestConvolveClamps(t *testing.T) {
	f := New(3, 3)
	f.Fill(60000)
	gain, _ := NewKernel([]float64{0, 0, 0, 0, 2, 0, 0, 0, 0})
	g := ConvolveInto(nil, f, gain)
	if g.At(1, 1) != 65535 {
		t.Fatalf("convolution must clamp: %d", g.At(1, 1))
	}
}

func TestGaussianKernel1DNormalized(t *testing.T) {
	for _, sigma := range []float64{0.5, 1, 2.5} {
		w := GaussianKernel1D(sigma)
		if len(w)%2 != 1 {
			t.Fatalf("kernel length must be odd: %d", len(w))
		}
		sum := 0.0
		for _, v := range w {
			sum += v
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Fatalf("kernel sum = %v", sum)
		}
	}
	if w := GaussianKernel1D(0); len(w) != 1 || w[0] != 1 {
		t.Fatalf("sigma<=0 must give identity: %v", w)
	}
}

func TestGaussianBlurPreservesFlat(t *testing.T) {
	f := New(16, 16)
	f.Fill(5000)
	g := GaussianBlurInto(nil, f, 1.5)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if d := int(g.At(x, y)) - 5000; d < -1 || d > 1 {
				t.Fatalf("flat field changed at (%d,%d): %d", x, y, g.At(x, y))
			}
		}
	}
}

func TestGaussianBlurSpreadsImpulse(t *testing.T) {
	f := New(11, 11)
	f.Set(5, 5, 10000)
	g := GaussianBlurInto(nil, f, 1)
	if g.At(5, 5) >= 10000 {
		t.Fatal("peak must decrease")
	}
	if g.At(4, 5) == 0 || g.At(5, 4) == 0 {
		t.Fatal("energy must spread to neighbors")
	}
}

func TestHessianOnRidge(t *testing.T) {
	// A vertical dark line on a bright background: XX strongly positive
	// (second derivative across the line of an inverted valley), YY ~ 0.
	f := New(9, 9)
	f.Fill(1000)
	for y := 0; y < 9; y++ {
		f.Set(4, y, 100)
	}
	h := HessianAt(f, 4, 4)
	if h.XX <= 0 {
		t.Fatalf("XX = %v, want > 0 across dark line", h.XX)
	}
	if math.Abs(h.YY) > 1e-9 {
		t.Fatalf("YY = %v, want 0 along line", h.YY)
	}
	l1, l2 := h.Eigenvalues()
	if math.Abs(l1) < math.Abs(l2) {
		t.Fatal("eigenvalues must be ordered by magnitude")
	}
	if l1 <= 0 {
		t.Fatalf("principal eigenvalue = %v, want positive for dark ridge", l1)
	}
}

func TestHessianEigenvaluesSymmetric(t *testing.T) {
	h := Hessian{XX: 2, YY: 2, XY: 0}
	l1, l2 := h.Eigenvalues()
	if l1 != 2 || l2 != 2 {
		t.Fatalf("eigenvalues = %v, %v; want 2, 2", l1, l2)
	}
	h = Hessian{XX: 0, YY: 0, XY: 3}
	l1, l2 = h.Eigenvalues()
	if math.Abs(math.Abs(l1)-3) > 1e-12 || math.Abs(math.Abs(l2)-3) > 1e-12 {
		t.Fatalf("pure shear eigenvalues = %v, %v; want ±3", l1, l2)
	}
}

func TestGradient(t *testing.T) {
	f := New(5, 5)
	// Linear ramp: value = 10*x.
	for y := 0; y < 5; y++ {
		for x := 0; x < 5; x++ {
			f.Set(x, y, uint16(10*x))
		}
	}
	gx, gy := Gradient(f, 2, 2)
	if gx != 10 || gy != 0 {
		t.Fatalf("gradient = %v, %v; want 10, 0", gx, gy)
	}
}

func TestThreshold(t *testing.T) {
	f := New(2, 1)
	f.Set(0, 0, 100)
	f.Set(1, 0, 99)
	g := Threshold(f, 100)
	if g.At(0, 0) != 0xFFFF || g.At(1, 0) != 0 {
		t.Fatalf("threshold wrong: %d, %d", g.At(0, 0), g.At(1, 0))
	}
}

func TestInvert(t *testing.T) {
	f := New(1, 1)
	f.Set(0, 0, 1)
	g := Invert(f)
	if g.At(0, 0) != 0xFFFE {
		t.Fatalf("Invert = %d", g.At(0, 0))
	}
	if Invert(g).At(0, 0) != 1 {
		t.Fatal("double inversion must be identity")
	}
}

func TestAbsDiff(t *testing.T) {
	a, b := New(2, 1), New(2, 1)
	a.Set(0, 0, 10)
	b.Set(0, 0, 25)
	a.Set(1, 0, 30)
	b.Set(1, 0, 5)
	d, err := AbsDiff(a, b)
	if err != nil {
		t.Fatal(err)
	}
	if d.At(0, 0) != 15 || d.At(1, 0) != 25 {
		t.Fatalf("AbsDiff = %d, %d", d.At(0, 0), d.At(1, 0))
	}
	if _, err := AbsDiff(a, New(3, 1)); err == nil {
		t.Fatal("expected bounds mismatch error")
	}
}

func TestNormalize(t *testing.T) {
	f := New(2, 1)
	f.Set(0, 0, 100)
	f.Set(1, 0, 200)
	g := Normalize(f)
	if g.At(0, 0) != 0 || g.At(1, 0) != 65535 {
		t.Fatalf("Normalize = %d, %d", g.At(0, 0), g.At(1, 0))
	}
	flat := New(2, 1)
	flat.Fill(7)
	if n := Normalize(flat); n.At(0, 0) != 0 {
		t.Fatal("constant frame must normalize to zero")
	}
}

func TestBilinearAt(t *testing.T) {
	f := New(2, 2)
	f.Set(0, 0, 0)
	f.Set(1, 0, 100)
	f.Set(0, 1, 200)
	f.Set(1, 1, 300)
	if v := BilinearAt(f, 0.5, 0.5); math.Abs(v-150) > 1e-9 {
		t.Fatalf("center sample = %v, want 150", v)
	}
	if v := BilinearAt(f, 0, 0); v != 0 {
		t.Fatalf("corner sample = %v, want 0", v)
	}
}

func TestResize(t *testing.T) {
	f := New(4, 4)
	f.Fill(1234)
	g := Resize(f, 8, 8)
	if g.Width() != 8 || g.Height() != 8 {
		t.Fatal("resize geometry wrong")
	}
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if d := int(g.At(x, y)) - 1234; d < -1 || d > 1 {
				t.Fatalf("flat resize changed value: %d", g.At(x, y))
			}
		}
	}
	if z := Resize(f, 0, 5); z.Pixels() != 0 {
		t.Fatal("zero-size resize must be empty")
	}
}

func TestTranslateInteger(t *testing.T) {
	f := New(5, 5)
	f.Set(2, 2, 4000)
	g := Translate(f, 1, 0)
	if g.At(3, 2) != 4000 {
		t.Fatalf("translate by (1,0) lost pixel: %d", g.At(3, 2))
	}
}

func TestAccumulator(t *testing.T) {
	a := NewAccumulator(2, 2)
	if a.Average() != nil {
		t.Fatal("Average before Add must be nil")
	}
	f1, f2 := New(2, 2), New(2, 2)
	f1.Fill(100)
	f2.Fill(300)
	if err := a.Add(f1); err != nil {
		t.Fatal(err)
	}
	if err := a.Add(f2); err != nil {
		t.Fatal(err)
	}
	if a.Frames() != 2 {
		t.Fatalf("Frames = %d", a.Frames())
	}
	avg := a.Average()
	if avg.At(0, 0) != 200 {
		t.Fatalf("Average = %d, want 200", avg.At(0, 0))
	}
	if err := a.Add(New(3, 3)); err == nil {
		t.Fatal("expected dimension mismatch error")
	}
	a.Reset()
	if a.Frames() != 0 {
		t.Fatal("Reset must clear frame count")
	}
}

func TestLabelComponentsTwoBlobs(t *testing.T) {
	mask := New(10, 10)
	// Blob A: 2x2 at (1,1); blob B: 3x1 at (6,6).
	for _, p := range [][2]int{{1, 1}, {2, 1}, {1, 2}, {2, 2}, {6, 6}, {7, 6}, {8, 6}} {
		mask.Set(p[0], p[1], 1)
	}
	comps, _ := LabelComponents(nil, nil, mask, nil, 1)
	if len(comps) != 2 {
		t.Fatalf("components = %d, want 2", len(comps))
	}
	a := comps[0]
	if a.Size != 4 || a.CX != 1.5 || a.CY != 1.5 {
		t.Fatalf("blob A stats: %+v", a)
	}
	if a.Compact != 1.0 {
		t.Fatalf("filled square compactness = %v", a.Compact)
	}
	b := comps[1]
	if b.Size != 3 || b.BBox.Width() != 3 || b.BBox.Height() != 1 {
		t.Fatalf("blob B stats: %+v", b)
	}
}

func TestLabelComponentsMinSize(t *testing.T) {
	mask := New(5, 5)
	mask.Set(0, 0, 1)
	mask.Set(3, 3, 1)
	mask.Set(4, 3, 1)
	comps, _ := LabelComponents(nil, nil, mask, nil, 2)
	if len(comps) != 1 || comps[0].Size != 2 {
		t.Fatalf("minSize filter failed: %+v", comps)
	}
}

func TestLabelComponentsDiagonalNotConnected(t *testing.T) {
	mask := New(4, 4)
	mask.Set(1, 1, 1)
	mask.Set(2, 2, 1)
	comps, _ := LabelComponents(nil, nil, mask, nil, 1)
	if len(comps) != 2 {
		t.Fatalf("4-connectivity violated: %d components", len(comps))
	}
}

func TestLabelComponentsEmpty(t *testing.T) {
	if got, _ := LabelComponents(nil, nil, New(4, 4), nil, 1); got != nil {
		t.Fatalf("empty mask must give nil, got %v", got)
	}
	var empty Frame
	if got, _ := LabelComponents(nil, nil, &empty, nil, 1); got != nil {
		t.Fatal("zero frame must give nil")
	}
}

func TestLabelComponentsSourceStats(t *testing.T) {
	mask, src := New(3, 3), New(3, 3)
	mask.Set(1, 1, 1)
	src.Set(1, 1, 4242)
	comps, _ := LabelComponents(nil, nil, mask, src, 1)
	if len(comps) != 1 || comps[0].MeanVal != 4242 {
		t.Fatalf("source stats wrong: %+v", comps)
	}
}

func TestLabelComponentsLargeBlobNoOverflow(t *testing.T) {
	// A full-frame blob exercises the explicit stack.
	mask := New(128, 128)
	mask.Fill(1)
	comps, _ := LabelComponents(nil, nil, mask, nil, 1)
	if len(comps) != 1 || comps[0].Size != 128*128 {
		t.Fatalf("full-frame blob mislabeled: %+v", comps)
	}
}

// Property: translating by integer offsets then back is identity away from
// the borders.
func TestPropertyTranslateRoundTrip(t *testing.T) {
	f := func(dx, dy uint8, seed int64) bool {
		sx, sy := int(dx%4), int(dy%4)
		src := New(16, 16)
		v := uint16(seed)
		for y := 4; y < 12; y++ {
			for x := 4; x < 12; x++ {
				v = v*31 + 7
				src.Set(x, y, v)
			}
		}
		moved := Translate(src, float64(sx), float64(sy))
		back := Translate(moved, float64(-sx), float64(-sy))
		for y := 6; y < 10; y++ {
			for x := 6; x < 10; x++ {
				if back.At(x, y) != src.At(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// Property: SubFrame of SubFrame equals SubFrame of the intersection.
func TestPropertySubFrameComposes(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		base := New(32, 32)
		base.Set(10, 10, 99)
		r1 := R(int(a%16), int(b%16), int(a%16)+10, int(b%16)+10)
		r2 := R(int(c%16), int(d%16), int(c%16)+8, int(d%16)+8)
		s1 := base.SubFrame(r1).SubFrame(r2)
		s2 := base.SubFrame(r1.Intersect(r2))
		if s1.Bounds != s2.Bounds {
			return false
		}
		for y := s1.Bounds.Y0; y < s1.Bounds.Y1; y++ {
			for x := s1.Bounds.X0; x < s1.Bounds.X1; x++ {
				if s1.At(x, y) != s2.At(x, y) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
