package frame

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"triplec/internal/parallel"
)

// Micro-benchmarks for the stencil kernels, named so that
// `go test -bench . ./internal/frame | benchstat old.txt new.txt`
// lines up across revisions: BenchmarkKernel/<op>/<size>-<procs>.
// The <op>=naive entries run the clamp-every-tap reference from
// equiv_test.go, quantifying the interior/border split's speedup
// within a single run.

func benchFrame(size int) *Frame {
	rng := rand.New(rand.NewSource(42))
	f := New(size, size)
	for i := range f.Pix {
		f.Pix[i] = uint16(rng.Intn(65536))
	}
	return f
}

var benchSizes = []int{128, 512}

func BenchmarkKernel(b *testing.B) {
	kern, err := NewKernel([]float64{0, -1, 0, -1, 5, -1, 0, -1, 0})
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range benchSizes {
		src := benchFrame(size)
		dst := New(size, size)
		half := New(size/2, size/2)
		sz := fmt.Sprintf("%dx%d", size, size)
		pix := int64(size * size * 2)

		cases := []struct {
			name string
			run  func()
		}{
			{"Convolve3x3/split", func() { ConvolveInto(dst, src, kern) }},
			{"Convolve3x3/naive", func() { naiveConvolve(src, kern) }},
			{"GaussianBlur/split", func() { GaussianBlurInto(dst, src, 1.2) }},
			{"GaussianBlur/naive", func() { naiveGaussianBlur(src, 1.2) }},
			{"Median3x3/split", func() { Median3x3Into(dst, src) }},
			{"Median3x3/naive", func() { naiveMedian3x3(src) }},
			{"Sobel/split", func() { SobelInto(dst, src) }},
			{"Sobel/naive", func() { naiveSobel(src) }},
			{"Resize/split", func() { ResizeInto(half, src, size/2, size/2) }},
			{"Resize/naive", func() { naiveResize(src, size/2, size/2) }},
		}
		for _, tc := range cases {
			b.Run(tc.name+"/"+sz, func(b *testing.B) {
				b.SetBytes(pix)
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.run()
				}
			})
		}
	}
}

func BenchmarkKernelParallel(b *testing.B) {
	for _, size := range benchSizes {
		src := benchFrame(size)
		dst := New(size, size)
		sz := fmt.Sprintf("%dx%d", size, size)
		for _, stripes := range []int{2, 4} {
			b.Run(fmt.Sprintf("GaussianBlur/k%d/%s", stripes, sz), func(b *testing.B) {
				b.SetBytes(int64(size * size * 2))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					GaussianBlurIntoParallel(dst, src, 1.2, stripes)
				}
			})
		}
	}
}

func BenchmarkPool(b *testing.B) {
	b.Run("BorrowRelease/512x512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			Release(BorrowUninit(512, 512))
		}
	})
	b.Run("New/512x512", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = New(512, 512)
		}
	})
}

// BenchmarkAddResampledDst times ENH's integration at 512x512 into a reused
// average against one into a fresh frame the caller keeps, as when every
// served output is retained. The allocator does not zero a large span fresh
// from the OS, so the fresh frame's first-touch page faults land in
// AddResampledInto; the frame itself is allocated outside the timer. The
// fresh case keeps every frame it made (512 KB an iteration), so it runs
// only with an explicit count: -bench AddResampledDst -benchtime 100x.
func BenchmarkAddResampledDst(b *testing.B) {
	const size, maxKept = 512, 200
	src := benchFrame(size)
	xs, ys := make([]Tap, size), make([]Tap, size)
	for i := range xs {
		xs[i], ys[i] = src.XTap(float64(i)+0.25), src.YTap(float64(i)+0.5)
	}
	for _, k := range []int{1, 2} {
		hs := parallel.NewHostStripes(k)
		defer hs.Close()
		for _, fresh := range []bool{false, true} {
			b.Run(fmt.Sprintf("stripes=%d/fresh=%v", k, fresh), func(b *testing.B) {
				if fresh && b.N > maxKept {
					b.Skipf("keeps one frame per iteration: run with -benchtime %dx or fewer", maxKept)
				}
				acc := NewAccumulator(size, size)
				dst := New(size, size)
				var kept []*Frame
				for i := 0; i < b.N; i++ {
					if fresh {
						b.StopTimer()
						dst = New(size, size)
						kept = append(kept, dst)
						b.StartTimer()
					}
					acc.AddResampledInto(dst, src, xs, ys, hs)
				}
				runtime.KeepAlive(kept)
			})
		}
	}
}
