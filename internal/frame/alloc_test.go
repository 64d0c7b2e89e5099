package frame

import (
	"math/rand"
	"testing"

	"triplec/internal/parallel"
)

// Allocation pins for the pooled per-frame kernel paths. The Into variants
// with a reused destination must not allocate at all; GaussianBlurInto
// and GaussianBlurSweep borrow their row scratch, ResizeInto and TranslateInto their tap tables and
// ResampleRows and AddResampledInto their ring of row products from a pool, which allocates only on
// a pool miss (e.g. when the GC drained the pool mid-run, or under -race,
// where sync.Pool drops a quarter of what it is handed), so their pin is
// pooled, a fraction plus the race allowance, rather than exactly zero.
const pooled = 0.5 + racePoolMallocs

func TestKernelIntoPathsDoNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	src := randFrame(rng, 128, 96)
	src2 := randFrame(rng, 128, 96)
	k, err := NewKernel([]float64{0, -1, 0, -1, 5, -1, 0, -1, 0})
	if err != nil {
		t.Fatal(err)
	}
	dst := New(128, 96)
	small := New(64, 48)
	xs, ys := make([]Tap, 128), make([]Tap, 96)
	for i := range xs {
		xs[i] = src.XTap(float64(i) * 0.7)
	}
	for i := range ys {
		ys[i] = src.YTap(float64(i) * 0.7)
	}

	cases := []struct {
		name  string
		limit float64 // average allocations per run
		run   func()
	}{
		{"ConvolveInto", 0, func() { ConvolveInto(dst, src, k) }},
		{"Median3x3Into", 0, func() { Median3x3Into(dst, src) }},
		{"SobelInto", 0, func() { SobelInto(dst, src) }},
		{"ThresholdInto", 0, func() { ThresholdInto(dst, src, 30000) }},
		{"InvertInto", 0, func() { InvertInto(dst, src) }},
		{"AbsDiffInto", 0, func() { _, _ = AbsDiffInto(dst, src, src2) }},
		// Pool-backed paths: tolerate rare pool misses.
		{"GaussianBlurInto", pooled, func() { GaussianBlurInto(dst, src, 1.2) }},
		{"ResizeInto", pooled, func() { ResizeInto(small, src, 64, 48) }},
		{"TranslateInto", pooled, func() { TranslateInto(dst, src, 0.7, 1.3) }},
		{"ResampleRows", pooled, func() { ResampleRows(dst, src, xs, ys, 0, 96) }},
		{"GaussianBlurSweep", pooled, func() { GaussianBlurSweep(src, 1.2, 0, 96, func(int, []float64, []float64, []float64) {}) }},
		{"BorrowRelease", pooled, func() { Release(BorrowUninit(128, 96)) }},
	}
	for _, tc := range cases {
		tc.run() // warm pools and kernel caches outside the measured runs
		if avg := testing.AllocsPerRun(50, tc.run); avg > tc.limit {
			t.Errorf("%s: %.2f allocs/op, want <= %.1f", tc.name, avg, tc.limit)
		}
	}
}

// TestAccumulatorAverageIntoDoesNotAllocate pins the enhancement stage's
// steady state: integrating a resampled frame and refreshing the running
// average into a reused destination allocates nothing but, on a pool miss,
// a stripe's ring of row products — inline or striped over host stripes.
func TestAccumulatorAverageIntoDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	src := randFrame(rng, 96, 80)
	hs := parallel.NewHostStripes(2)
	defer hs.Close()
	for _, c := range []struct {
		w, h   int
		sx, sy float64
		hs     *parallel.HostStripes
	}{{64, 64, 1.6, 0.9, nil}, {192, 160, 0.5, 0.45, hs}} {
		xs, ys := tapsOf(src, affine(c.w, -3.3, c.sx), affine(c.h, 2.2, c.sy))
		acc := NewAccumulator(c.w, c.h)
		dst := acc.AddResampledInto(nil, src, xs, ys, c.hs)
		run := func() {
			if acc.AddResampledInto(dst, src, xs, ys, c.hs) != dst {
				t.Fatal("AddResampledInto did not reuse the destination")
			}
		}
		if avg := testing.AllocsPerRun(50, run); avg > pooled {
			t.Errorf("AddResampledInto %dx%d, %d stripes: %.2f allocs/op, want <= %.1f", c.w, c.h, c.hs.K(), avg, pooled)
		}
	}
}
