package pipeline

import (
	"math"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/platform"
	"triplec/internal/synth"
)

// goldenDigest folds every report's scenario, couple, ROI and output pixels
// into one order-sensitive FNV-1a value.
func goldenDigest(reps []Report) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range reps {
		r := &reps[i]
		mix(uint64(r.Scenario.Index()))
		if r.Couple == nil {
			mix(0xdead)
		} else {
			for _, v := range [...]float64{r.Couple.A.X, r.Couple.A.Y, r.Couple.B.X, r.Couple.B.Y} {
				mix(math.Float64bits(v))
			}
		}
		for _, v := range [...]int{r.ROI.X0, r.ROI.Y0, r.ROI.X1, r.ROI.Y1} {
			mix(uint64(int64(v)))
		}
		if r.Output == nil {
			mix(0xbeef)
			continue
		}
		for y := r.Output.Bounds.Y0; y < r.Output.Bounds.Y1; y++ {
			for _, px := range r.Output.Row(y) {
				mix(uint64(px))
			}
		}
	}
	return h
}

// TestEngineGoldenDigest pins what the engine computes — not what it is
// modeled to cost — across kernel rewrites: 200 frames of a noisy sequence
// with clutter and dropouts through the serial mapping. The constants were
// recorded at commit 3150b11, before the table-driven resampler replaced the per-pixel
// BilinearAt loops in ENH, ZOOM and Resize.
func TestEngineGoldenDigest(t *testing.T) {
	for _, tc := range []struct {
		size int
		want uint64
	}{
		{32, 0xc4e05b9c692afcc6},
		{128, 0xf7f46340e2acc12b},
	} {
		spacing := 36 * float64(tc.size) / 128
		cfg := synth.DefaultConfig(4242)
		cfg.Width, cfg.Height = tc.size, tc.size
		cfg.MarkerSpacing = spacing
		cfg.NoiseSigma = 250
		cfg.QuantumGain = 0
		cfg.ClutterRate = 3
		cfg.DropoutEvery = 23
		seq, err := synth.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{Width: tc.size, Height: tc.size, MarkerSpacing: spacing, Arch: platform.Blackford()})
		if err != nil {
			t.Fatal(err)
		}
		reps, err := eng.RunSequence(200, func(i int) *frame.Frame {
			f, _ := seq.Frame(i)
			return f
		}, partition.Serial())
		if err != nil {
			t.Fatal(err)
		}
		outputs := 0
		for i := range reps {
			if reps[i].Output != nil {
				outputs++
			}
		}
		if outputs < 40 {
			t.Errorf("%d px: only %d of 200 frames produced an output; the golden would not cover ENH/ZOOM", tc.size, outputs)
		}
		if got := goldenDigest(reps); got != tc.want {
			t.Errorf("%d px: digest %#016x, want %#016x", tc.size, got, tc.want)
		}
	}
}
