package frame

import "testing"

func noisyFrame(w, h int, seed uint16) *Frame {
	f := New(w, h)
	v := seed
	for i := range f.Pix {
		v = v*25173 + 13849
		f.Pix[i] = v
	}
	return f
}

func TestGaussianBlurParallelMatchesSerial(t *testing.T) {
	f := noisyFrame(64, 48, 7)
	want := GaussianBlurInto(nil, f, 1.4)
	for _, k := range []int{1, 2, 3, 8, 100} {
		got := GaussianBlurIntoParallel(nil, f, 1.4, k)
		if !got.Equal(want) {
			t.Fatalf("k=%d: parallel blur differs from serial", k)
		}
	}
}

func TestGaussianBlurParallelSubFrame(t *testing.T) {
	base := noisyFrame(64, 64, 11)
	sub := base.SubFrame(R(8, 8, 56, 40))
	want := GaussianBlurInto(nil, sub, 1.2)
	got := GaussianBlurIntoParallel(nil, sub, 1.2, 4)
	if !got.Equal(want) {
		t.Fatal("parallel blur differs on subframe")
	}
}

func TestResizeParallelMatchesSerial(t *testing.T) {
	f := noisyFrame(50, 30, 13)
	want := Resize(f, 77, 19)
	for _, k := range []int{1, 4, 16} {
		got := ResizeIntoParallel(nil, f, 77, 19, k)
		if !got.Equal(want) {
			t.Fatalf("k=%d: parallel resize differs", k)
		}
	}
	if z := ResizeIntoParallel(nil, f, 0, 10, 4); z.Pixels() != 0 {
		t.Fatal("zero-size resize must be empty")
	}
}

func TestConvolveParallelMatchesSerial(t *testing.T) {
	f := noisyFrame(40, 40, 17)
	kern, err := NewKernel([]float64{0, -1, 0, -1, 5, -1, 0, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	want := ConvolveInto(nil, f, kern)
	got := ConvolveParallel(f, kern, 6)
	if !got.Equal(want) {
		t.Fatal("parallel convolve differs")
	}
}
