package synth

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"triplec/internal/stats"
)

// studyConfig is the configuration the experiments' Study gives synthetic
// sequences (experiments.Study.SynthConfig) at size x size.
func studyConfig(seed uint64, size int) Config {
	cfg := DefaultConfig(seed)
	cfg.Width, cfg.Height = size, size
	cfg.MarkerSpacing = 36
	cfg.NoiseSigma = 250
	cfg.QuantumGain = 0
	cfg.ClutterRate = 3
	cfg.DropoutEvery = 23
	return cfg
}

func mustNew(t testing.TB, cfg Config) *Sequence {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// Frame renders exactly oracleFrame's bits: for the seed families the
// training corpus (1000+17i), the test sets (900000+83i) and `triplec shadow`
// (5000+29i) draw from, at three sizes, over frames that cross contrast
// bursts, marker dropouts and clutter, and for a quantum-noise
// configuration.
func TestFrameMatchesOracle(t *testing.T) {
	frames := []int{0, 1, 14, 15, 22, 23, 49, 50, 64, 99}
	type tc struct {
		name string
		cfg  Config
	}
	var cases []tc
	for _, size := range []int{32, 128, 512} {
		for i := uint64(0); i < 2; i++ {
			for _, seed := range []uint64{1 + 1000 + 17*i, 1 + 900000 + 83*i, 1 + 5000 + 29*i} {
				cases = append(cases, tc{fmt.Sprintf("%d/seed%d", size, seed), studyConfig(seed, size)})
			}
		}
	}
	quantum := DefaultConfig(3)
	quantum.Width, quantum.Height = 64, 64
	wide := studyConfig(11, 64)
	wide.NoiseSigma = 20000 // past the fast path's guard: the exact transform
	cases = append(cases, tc{"quantum", quantum}, tc{"wide-sigma", wide})
	for _, c := range cases {
		s := mustNew(t, c.cfg)
		for _, i := range frames {
			if testing.Short() && c.cfg.Width == 512 && i%2 == 1 {
				continue
			}
			got, gotTr := s.Frame(i)
			want, wantTr := oracleFrame(s, i)
			if !got.Equal(want) || gotTr != wantTr {
				t.Fatalf("%s frame %d differs from the oracle", c.name, i)
			}
		}
	}
}

// normLoop is the per-pixel noise of the exact path.
func normLoop(pix []uint16, rng *stats.RNG, sigma float64) {
	for i, p := range pix {
		pix[i] = clamp16(float64(p) + rng.Norm(0, sigma))
	}
}

// Every uint16 value, the clamps included, takes the same noisy value
// through gaussNoise as through rng.Norm, and leaves the RNG in the same
// state.
func TestNoiseMatchesNorm(t *testing.T) {
	pix := make([]uint16, 1<<16)
	for i := range pix {
		pix[i] = uint16(i)
	}
	for _, seed := range []uint64{1, 42, 0xDEADBEEF, 1<<63 + 5} {
		for _, sigma := range []float64{0.3, 250, 600, 20000} {
			got := append([]uint16(nil), pix...)
			want := append([]uint16(nil), pix...)
			rg, rw := stats.NewRNG(seed), stats.NewRNG(seed)
			gaussNoise(got, rg, sigma)
			normLoop(want, rw, sigma)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d sigma %g: pixel value %d -> %d, want %d", seed, sigma, i, got[i], want[i])
				}
			}
			if rg.Uint64() != rw.Uint64() {
				t.Fatalf("seed %d sigma %g: RNG streams diverged", seed, sigma)
			}
		}
	}
}

// nearEdge is the guard's whole proof obligation: a value it lets through
// rounds, clamps included, as every value within noiseGuard of it does.
func TestNearEdge(t *testing.T) {
	for _, c := range []struct {
		v    float64
		near bool
	}{
		{0.5, true}, {30000.5, true}, {30000.5 + noiseGuard/2, true}, {30000.5 - noiseGuard/2, true},
		{30000.5 + 2*noiseGuard, false}, {30000.5 - 2*noiseGuard, false}, {30000, false},
		{0, true}, {noiseGuard / 2, true}, {-noiseGuard / 2, true}, {-1, false}, {-1e9, false},
		{65535, true}, {65535 - noiseGuard/2, true}, {65535.25, false}, {1e9, false},
	} {
		if got := nearEdge(c.v); got != c.near {
			t.Errorf("nearEdge(%v) = %v, want %v", c.v, got, c.near)
		}
	}
	rng := stats.NewRNG(7)
	for i := 0; i < 1_000_000; i++ {
		// Values within a few guards of a rounding boundary or a clamp.
		k := float64(rng.Intn(65538)) - 1
		v := k + 0.5*float64(rng.Intn(2)) + (rng.Float64()-0.5)*8*noiseGuard
		if nearEdge(v) {
			continue
		}
		for _, d := range []float64{-noiseGuard, noiseGuard, (rng.Float64()*2 - 1) * noiseGuard} {
			if clamp16(v+d) != clamp16(v) {
				t.Fatalf("nearEdge(%v) is false but clamp16 differs at %v", v, v+d)
			}
		}
	}
}

// approxZ stays within approxZErr of the exact transform, which is at most
// guard/(σ·10³) for every σ the fast path serves, over 10⁷ draws, at the
// u1 clamp and at the quadrant edges of u2.
func TestGaussianApproxError(t *testing.T) {
	if maxSigma := noiseGuard / (approxZErr * 1e3); maxSigma < 600 {
		t.Fatalf("fast path serves σ ≤ %g only, below the default 600", maxSigma)
	}
	n := 10_000_000
	if testing.Short() {
		n = 1_000_000
	}
	worst := 0.0
	check := func(u1, u2 float64) {
		if d := math.Abs(approxZ(u1, u2) - stats.BoxMuller(u1, u2)); d > worst || math.IsNaN(d) {
			worst = d
			if !(d <= approxZErr) {
				t.Fatalf("|approxZ - BoxMuller| = %g at u1=%v u2=%v, bound %g", d, u1, u2, approxZErr)
			}
		}
	}
	rng := stats.NewRNG(2026)
	for i := 0; i < n; i++ {
		check(rng.NormUniforms())
	}
	ulp := 1.0 / (1 << 53)
	for _, u1 := range []float64{1e-12, 1e-12 + ulp, 0.5, math.Sqrt2 / 2, 1 - ulp} {
		for q := 0.0; q <= 8; q++ {
			for _, d := range []float64{-ulp, 0, ulp} {
				if u2 := q/8 + d; u2 >= 0 && u2 < 1 {
					check(u1, u2)
				}
			}
		}
	}
	t.Logf("max |Δz| = %.3g over %d draws", worst, n)
}

// Concurrent Frame calls on one Sequence share its read-only background
// and vessels and render what serial calls render.
func TestConcurrentFramesMatchSerial(t *testing.T) {
	s := mustNew(t, studyConfig(1001, 64))
	const n = 24
	var got [n][]uint16
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < n; i += 4 {
				f, _ := s.Frame(i)
				got[i] = f.Pix
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		want, _ := s.Frame(i)
		for j := range want.Pix {
			if got[i][j] != want.Pix[j] {
				t.Fatalf("frame %d pixel %d rendered concurrently differs", i, j)
			}
		}
	}
}

// FuzzNoiseRow checks gaussNoise against the per-pixel rng.Norm loop for
// arbitrary pixel values and seeds.
func FuzzNoiseRow(f *testing.F) {
	f.Add(uint64(1), []byte{0, 0, 255, 255, 48, 117})
	f.Add(uint64(900001), []byte{1, 0, 254, 255, 0, 128})
	f.Fuzz(func(t *testing.T, seed uint64, raw []byte) {
		pix := make([]uint16, len(raw)/2)
		for i := range pix {
			pix[i] = uint16(raw[2*i]) | uint16(raw[2*i+1])<<8
		}
		for _, sigma := range []float64{250, 600} {
			got := append([]uint16(nil), pix...)
			want := append([]uint16(nil), pix...)
			gaussNoise(got, stats.NewRNG(seed), sigma)
			normLoop(want, stats.NewRNG(seed), sigma)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("seed %d sigma %g: value %d -> %d, want %d", seed, sigma, pix[i], got[i], want[i])
				}
			}
		}
	})
}

func BenchmarkFrame(b *testing.B) {
	for _, size := range []int{32, 512} {
		s := mustNew(b, studyConfig(1001, size))
		b.Run(fmt.Sprint(size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Frame(i % 100)
			}
		})
		b.Run(fmt.Sprintf("oracle/%d", size), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				oracleFrame(s, i%100)
			}
		})
	}
}
