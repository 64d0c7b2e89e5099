package frame

import (
	"math/rand"
	"testing"
)

// Allocation pins for the pooled per-frame kernel paths. The Into variants
// with a reused destination must not allocate at all; GaussianBlurInto
// and GaussianBlurSweep borrow their row scratch, ResizeInto and TranslateInto their tap tables and
// ResampleRows its ring of row products from a pool, which allocates only on
// a pool miss (e.g. when the GC drained the pool mid-run, or under -race,
// where sync.Pool drops a quarter of what it is handed), so their pin is a
// fraction rather than exactly zero.

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
		// Pool-backed paths: tolerate rare GC-induced pool misses.
		{"GaussianBlurInto", 0.5, func() { GaussianBlurInto(dst, src, 1.2) }},
		{"ResizeInto", 0.5, func() { ResizeInto(small, src, 64, 48) }},
		{"TranslateInto", 0.5, func() { TranslateInto(dst, src, 0.7, 1.3) }},
		{"ResampleRows", 0.5, func() { ResampleRows(dst, src, xs, ys, 0, 96) }},
		{"GaussianBlurSweep", 0.5, func() { GaussianBlurSweep(src, 1.2, 0, 96, func(int, []float64, []float64, []float64) {}) }},
		{"BorrowRelease", 0.5, func() { Release(BorrowUninit(128, 96)) }},
	}
	for _, tc := range cases {
		tc.run() // warm pools and kernel caches outside the measured runs
		if avg := testing.AllocsPerRun(50, tc.run); avg > tc.limit {
			t.Errorf("%s: %.2f allocs/op, want <= %.1f", tc.name, avg, tc.limit)
		}
	}
}

// TestAccumulatorAverageIntoDoesNotAllocate pins the enhancement stage's
// steady state: integrating a frame and refreshing the running average into
// a reused destination is allocation-free.
func TestAccumulatorAverageIntoDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	f := randFrame(rng, 64, 64)
	acc := NewAccumulator(64, 64)
	if err := acc.Add(f); err != nil {
		t.Fatal(err)
	}
	dst := New(64, 64)
	run := func() {
		if err := acc.Add(f); err != nil {
			t.Fatal(err)
		}
		acc.AverageInto(dst)
	}
	run()
	if avg := testing.AllocsPerRun(50, run); avg > 0 {
		t.Errorf("Add+AverageInto: %.2f allocs/op, want 0", avg)
	}
	fused := func() {
		if _, err := acc.AddAverageInto(dst, f); err != nil {
			t.Fatal(err)
		}
	}
	if avg := testing.AllocsPerRun(50, fused); avg > 0 {
		t.Errorf("AddAverageInto: %.2f allocs/op, want 0", avg)
	}
}
