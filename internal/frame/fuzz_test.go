package frame

import (
	"bytes"
	"math/rand"
	"testing"
)

// FuzzReadPGM hardens the PGM parser against malformed input: it must
// return an error or a consistent frame, never panic or over-allocate.
func FuzzReadPGM(f *testing.F) {
	// Seed corpus: a valid tiny PGM plus truncations and corruptions.
	valid := func() []byte {
		fr := New(3, 2)
		fr.Set(1, 1, 777)
		var buf bytes.Buffer
		if err := WritePGM(&buf, fr); err != nil {
			f.Fatal(err)
		}
		return buf.Bytes()
	}()
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add([]byte("P5\n3 2\n65535\n"))
	f.Add([]byte("P5\n-1 2\n65535\n\x00"))
	f.Add([]byte("P2\n1 1\n255\n0"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadPGM(bytes.NewReader(data))
		if err != nil {
			return
		}
		// Parsed frames must be internally consistent and round-trip.
		if fr.Width() <= 0 || fr.Height() <= 0 {
			t.Fatalf("parsed frame with bad geometry %dx%d", fr.Width(), fr.Height())
		}
		if len(fr.Pix) != fr.Width()*fr.Height() {
			t.Fatalf("pixel buffer size mismatch")
		}
		var buf bytes.Buffer
		if err := WritePGM(&buf, fr); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := ReadPGM(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if !back.Equal(fr) {
			t.Fatal("round trip changed pixels")
		}
	})
}

// FuzzStencilEquivalence drives the optimised kernels with arbitrary
// geometries, ROI windows (one of them framed by pixels no kernel may read),
// sigmas and stripe counts and checks them against the naive
// clamp-every-tap references from equiv_test.go. Any divergence — including
// a panic from bad slice arithmetic — is a bug in the fast paths.
func FuzzStencilEquivalence(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(0), uint8(0), uint8(8), uint8(8), int64(1), float64(1.2))
	f.Add(uint8(1), uint8(1), uint8(0), uint8(0), uint8(1), uint8(1), int64(2), float64(0.5))
	f.Add(uint8(32), uint8(3), uint8(5), uint8(1), uint8(20), uint8(2), int64(3), float64(3.0))
	f.Add(uint8(3), uint8(32), uint8(1), uint8(7), uint8(2), uint8(19), int64(4), float64(0.0))
	f.Add(uint8(17), uint8(11), uint8(16), uint8(10), uint8(1), uint8(1), int64(5), float64(7.5))

	f.Fuzz(func(t *testing.T, pw, ph, rx, ry, rw, rh uint8, seed int64, sigma float64) {
		// Bound the work: parent at most 48x48, sigma in a sane range.
		w := int(pw)%48 + 1
		h := int(ph)%48 + 1
		if sigma < 0 || sigma > 8 || sigma != sigma {
			sigma = 1.1
		}
		rng := rand.New(rand.NewSource(seed))
		parent := New(w, h)
		for i := range parent.Pix {
			parent.Pix[i] = uint16(rng.Intn(65536))
		}
		// Derive an in-bounds, non-empty ROI window from the fuzz inputs.
		x0 := int(rx) % w
		y0 := int(ry) % h
		x1 := x0 + int(rw)%(w-x0) + 1
		y1 := y0 + int(rh)%(h-y0) + 1
		framed := framedROI(rng, x1-x0, y1-y0, 1+int(rx)%13)
		for _, src := range []*Frame{parent, parent.SubFrame(R(x0, y0, x1, y1)), framed} {
			requireEqual(t, "blur", GaussianBlurInto(nil, src, sigma), naiveGaussianBlur(src, sigma))
			requireEqual(t, "median", Median3x3Into(nil, src), naiveMedian3x3(src))
			requireEqual(t, "sobel", SobelInto(nil, src), naiveSobel(src))
			k, err := NewKernel([]float64{0.1, -0.2, 0.3, 0.4, 0.5, -0.6, 0.7, 0.8, -0.9})
			if err != nil {
				t.Fatal(err)
			}
			requireEqual(t, "convolve", ConvolveInto(nil, src, k), naiveConvolve(src, k))
			for _, k := range []int{3, 1 + int(ry)%9, src.Height() + 1} {
				requireEqual(t, "stripes", GaussianBlurIntoParallel(nil, src, sigma, k), GaussianBlurInto(nil, src, sigma))
			}
			tw, th := src.Width()/2+1, src.Height()/2+1
			requireEqual(t, "resize", Resize(src, tw, th), naiveResize(src, tw, th))
		}
	})
}
