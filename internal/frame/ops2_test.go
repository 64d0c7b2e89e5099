package frame

import (
	"testing"
	"testing/quick"
)

func TestMedian3x3RemovesImpulse(t *testing.T) {
	f := New(7, 7)
	f.Fill(1000)
	f.Set(3, 3, 65535) // salt impulse
	g := Median3x3Into(nil, f)
	if g.At(3, 3) != 1000 {
		t.Fatalf("median did not remove impulse: %d", g.At(3, 3))
	}
}

func TestMedian3x3PreservesFlat(t *testing.T) {
	f := New(8, 8)
	f.Fill(4242)
	if !Median3x3Into(nil, f).Equal(f) {
		t.Fatal("median changed a flat field")
	}
}

func TestMedian3x3PreservesEdgeLocation(t *testing.T) {
	f := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			f.Set(x, y, 10000)
		}
	}
	g := Median3x3Into(nil, f)
	if g.At(2, 4) != 0 || g.At(5, 4) != 10000 {
		t.Fatalf("median moved the edge: %d, %d", g.At(2, 4), g.At(5, 4))
	}
}

func TestOtsuBimodal(t *testing.T) {
	f := New(16, 16)
	for y := 0; y < 16; y++ {
		for x := 0; x < 16; x++ {
			if x < 8 {
				f.Set(x, y, 5000)
			} else {
				f.Set(x, y, 50000)
			}
		}
	}
	thr, err := OtsuThreshold(f)
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 5000 || thr >= 50000 {
		t.Fatalf("Otsu threshold %d not between the modes", thr)
	}
	// Thresholding at the result must separate exactly the two halves.
	mask := Threshold(f, thr)
	if mask.At(0, 0) != 0 || mask.At(15, 0) != 0xFFFF {
		t.Fatal("Otsu threshold does not separate the modes")
	}
}

func TestOtsuDegenerate(t *testing.T) {
	if _, err := OtsuThreshold(New(0, 0)); err == nil {
		t.Fatal("empty frame accepted")
	}
	flat := New(4, 4)
	flat.Fill(7)
	if _, err := OtsuThreshold(flat); err == nil {
		t.Fatal("constant frame accepted")
	}
}

func TestDownsample2xAverages(t *testing.T) {
	f := New(4, 2)
	// First 2x2 block: 0, 100, 200, 300 -> mean 150.
	f.Set(0, 0, 0)
	f.Set(1, 0, 100)
	f.Set(0, 1, 200)
	f.Set(1, 1, 300)
	// Second block constant 40.
	for _, p := range [][2]int{{2, 0}, {3, 0}, {2, 1}, {3, 1}} {
		f.Set(p[0], p[1], 40)
	}
	g := Downsample2x(f)
	if g.Width() != 2 || g.Height() != 1 {
		t.Fatalf("downsample geometry %dx%d", g.Width(), g.Height())
	}
	if g.At(0, 0) != 150 || g.At(1, 0) != 40 {
		t.Fatalf("downsample values %d, %d", g.At(0, 0), g.At(1, 0))
	}
}

func TestDownsample2xOddDimensions(t *testing.T) {
	g := Downsample2x(New(5, 3))
	if g.Width() != 2 || g.Height() != 1 {
		t.Fatalf("odd-dimension downsample %dx%d", g.Width(), g.Height())
	}
}

func TestDownsample2xReducesNoise(t *testing.T) {
	// Averaging 4 independent noise samples must reduce the variance by
	// roughly 4x.
	f := New(64, 64)
	v := uint16(1)
	for i := range f.Pix {
		v = v*25173 + 13849 // LCG noise
		f.Pix[i] = v
	}
	area := Downsample2x(f)
	varOf := func(fr *Frame) float64 {
		m := fr.MeanValue()
		s := 0.0
		for y := 0; y < fr.Height(); y++ {
			for _, px := range fr.Row(y) {
				d := float64(px) - m
				s += d * d
			}
		}
		return s / float64(fr.Pixels())
	}
	src, ds := varOf(f), varOf(area)
	if ds > src/2.5 {
		t.Fatalf("area downsample variance %v not well below source %v", ds, src)
	}
}

func TestIntegralSums(t *testing.T) {
	f := New(4, 3)
	val := uint16(1)
	var total uint64
	for y := 0; y < 3; y++ {
		for x := 0; x < 4; x++ {
			f.Set(x, y, val)
			total += uint64(val)
			val++
		}
	}
	ig := NewIntegral(f)
	if got := ig.Sum(0, 0, 4, 3); got != total {
		t.Fatalf("full sum = %d, want %d", got, total)
	}
	// Single pixel (2,1): value = 1 + 1*4 + 2 = 7.
	if got := ig.Sum(2, 1, 3, 2); got != 7 {
		t.Fatalf("single-pixel sum = %d, want 7", got)
	}
	// Clamping and empty rectangles.
	if ig.Sum(-5, -5, 100, 100) != total {
		t.Fatal("clamped full sum wrong")
	}
	if ig.Sum(2, 2, 2, 3) != 0 || ig.Sum(3, 1, 2, 2) != 0 {
		t.Fatal("empty rectangle must sum to 0")
	}
}

func TestIntegralMean(t *testing.T) {
	f := New(4, 4)
	f.Fill(100)
	ig := NewIntegral(f)
	if got := ig.Mean(1, 1, 3, 3); got != 100 {
		t.Fatalf("mean = %v, want 100", got)
	}
	if ig.Mean(2, 2, 2, 2) != 0 {
		t.Fatal("empty mean must be 0")
	}
}

func TestSobelFlatIsZero(t *testing.T) {
	f := New(8, 8)
	f.Fill(30000)
	g := SobelInto(nil, f)
	for y := 0; y < 8; y++ {
		for x := 0; x < 8; x++ {
			if g.At(x, y) != 0 {
				t.Fatalf("Sobel of flat field non-zero at (%d,%d)", x, y)
			}
		}
	}
}

func TestSobelEdgeResponds(t *testing.T) {
	f := New(8, 8)
	for y := 0; y < 8; y++ {
		for x := 4; x < 8; x++ {
			f.Set(x, y, 40000)
		}
	}
	g := SobelInto(nil, f)
	if g.At(4, 4) == 0 && g.At(3, 4) == 0 {
		t.Fatal("Sobel missed a vertical edge")
	}
	if g.At(1, 4) != 0 {
		t.Fatal("Sobel responded away from the edge")
	}
}

// Property: the integral image agrees with brute-force summation.
func TestPropertyIntegralBruteForce(t *testing.T) {
	f := func(seed uint16, x0, y0, x1, y1 uint8) bool {
		fr := New(12, 12)
		v := seed
		for i := range fr.Pix {
			v = v*31 + 7
			fr.Pix[i] = v % 1000
		}
		ig := NewIntegral(fr)
		ax0, ay0 := int(x0%13), int(y0%13)
		ax1, ay1 := int(x1%13), int(y1%13)
		var brute uint64
		for y := ay0; y < ay1 && y < 12; y++ {
			for x := ax0; x < ax1 && x < 12; x++ {
				if x >= 0 && y >= 0 {
					brute += uint64(fr.At(x, y))
				}
			}
		}
		return ig.Sum(ax0, ay0, ax1, ay1) == brute
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: the median filter output values always come from the input's
// value set neighborhood (no invented values).
func TestPropertyMedianFromNeighborhood(t *testing.T) {
	f := func(seed uint16) bool {
		fr := New(6, 6)
		v := seed
		for i := range fr.Pix {
			v = v*13 + 101
			fr.Pix[i] = v % 512
		}
		g := Median3x3Into(nil, fr)
		for y := 0; y < 6; y++ {
			for x := 0; x < 6; x++ {
				found := false
				for dy := -1; dy <= 1 && !found; dy++ {
					for dx := -1; dx <= 1 && !found; dx++ {
						if fr.AtClamped(x+dx, y+dy) == g.At(x, y) {
							found = true
						}
					}
				}
				if !found {
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
