package core

import (
	"math"
	"testing"
	"testing/quick"

	"triplec/internal/stats"
)

func TestNewFilterValidation(t *testing.T) {
	for _, alpha := range []float64{0, -0.5, 1.1} {
		if _, err := NewFilter(alpha); err == nil {
			t.Fatalf("alpha %v accepted", alpha)
		}
	}
	if _, err := NewFilter(1); err != nil {
		t.Fatal("alpha 1 must be allowed")
	}
}

func TestFilterPrimesOnFirstSample(t *testing.T) {
	f, _ := NewFilter(0.1)
	if f.Primed() {
		t.Fatal("fresh filter must not be primed")
	}
	if got := f.Update(42); got != 42 {
		t.Fatalf("first update = %v, want 42", got)
	}
	if !f.Primed() {
		t.Fatal("filter must be primed after first sample")
	}
}

func TestFilterEquationOne(t *testing.T) {
	// y(tk) = (1-alpha)*y(tk-1) + alpha*x(tk), checked by hand.
	f, _ := NewFilter(0.25)
	f.Update(100)
	got := f.Update(200) // 0.75*100 + 0.25*200 = 125
	if got != 125 {
		t.Fatalf("Eq. 1 violated: %v, want 125", got)
	}
	got = f.Update(0) // 0.75*125 = 93.75
	if got != 93.75 {
		t.Fatalf("Eq. 1 violated: %v, want 93.75", got)
	}
}

func TestFilterAlphaOneTracksInput(t *testing.T) {
	f, _ := NewFilter(1)
	for _, x := range []float64{5, -3, 17} {
		if got := f.Update(x); got != x {
			t.Fatalf("alpha=1 must track input: %v vs %v", got, x)
		}
	}
}

func TestFilterConvergesToConstant(t *testing.T) {
	f, _ := NewFilter(0.2)
	for i := 0; i < 200; i++ {
		f.Update(50)
	}
	if math.Abs(f.Value()-50) > 1e-9 {
		t.Fatalf("filter did not converge: %v", f.Value())
	}
}

func TestFilterReset(t *testing.T) {
	f, _ := NewFilter(0.5)
	f.Update(10)
	f.Reset()
	if f.Primed() || f.Value() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestFilterAdaptsFasterWithLargerAlpha(t *testing.T) {
	slow, _ := NewFilter(0.05)
	fast, _ := NewFilter(0.5)
	slow.Update(0)
	fast.Update(0)
	for i := 0; i < 5; i++ {
		slow.Update(100)
		fast.Update(100)
	}
	if fast.Value() <= slow.Value() {
		t.Fatal("larger alpha must adapt faster (the paper's reason for IIR)")
	}
}

func TestDecomposeReconstructs(t *testing.T) {
	xs := []float64{3, 9, 1, 7, 5, 5, 8}
	lpf, hpf, err := Decompose(xs, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	for i := range xs {
		if math.Abs(lpf[i]+hpf[i]-xs[i]) > 1e-12 {
			t.Fatalf("lpf+hpf != x at %d", i)
		}
	}
}

func TestDecomposeInvalidAlpha(t *testing.T) {
	if _, _, err := Decompose([]float64{1}, 0); err == nil {
		t.Fatal("alpha 0 accepted")
	}
}

func TestDecomposeSeparatesScales(t *testing.T) {
	// Slow ramp + fast alternation: the LPF must carry the ramp, the HPF
	// the alternation.
	n := 400
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i)*0.1 + 5*math.Pow(-1, float64(i))
	}
	lpf, hpf, err := Decompose(xs, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	// LPF variance dominated by the trend; HPF mean near zero with spread ~5.
	if stats.Mean(hpf[50:]) > 1.5 || stats.Mean(hpf[50:]) < -1.5 {
		t.Fatalf("HPF mean = %v, want near 0", stats.Mean(hpf[50:]))
	}
	if lpf[n-1] < 30 {
		t.Fatalf("LPF lost the trend: %v", lpf[n-1])
	}
	if stats.StdDev(hpf[50:]) < 2 {
		t.Fatal("HPF lost the fast alternation")
	}
}

func TestFitLinearGrowthRecoversEq3(t *testing.T) {
	// Generate samples from the paper's Eq. 3 and recover it.
	var xs, ys []float64
	for x := 0.0; x <= 300000; x += 10000 {
		xs = append(xs, x/1000) // in kilopixels as Fig. 6's axis
		ys = append(ys, 0.067*(x/1000)+20.6)
	}
	g, err := FitLinearGrowth(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(g.Slope-0.067) > 1e-9 || math.Abs(g.Intercept-20.6) > 1e-9 {
		t.Fatalf("fit = %+v, want slope 0.067 intercept 20.6", g)
	}
	if g.R2 < 0.999 {
		t.Fatalf("R2 = %v", g.R2)
	}
}

func TestLinearGrowthPredict(t *testing.T) {
	g := LinearGrowth{Slope: 2, Intercept: 1}
	if g.Predict(3) != 7 {
		t.Fatal("Predict wrong")
	}
}

func TestDetrend(t *testing.T) {
	g := LinearGrowth{Slope: 1, Intercept: 0}
	res, err := g.Detrend([]float64{1, 2, 3}, []float64{2, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{1, 0, 1}
	for i := range want {
		if res[i] != want[i] {
			t.Fatalf("Detrend = %v, want %v", res, want)
		}
	}
	if _, err := g.Detrend([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: the filter output always lies within the range of inputs seen
// so far (convexity of the EWMA update).
func TestPropertyFilterBounded(t *testing.T) {
	f := func(raw []int8, alphaRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		alpha := float64(alphaRaw%99+1) / 100
		fl, err := NewFilter(alpha)
		if err != nil {
			return false
		}
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, r := range raw {
			x := float64(r)
			if x < lo {
				lo = x
			}
			if x > hi {
				hi = x
			}
			y := fl.Update(x)
			if y < lo-1e-9 || y > hi+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestNewHoltValidation(t *testing.T) {
	for _, bad := range [][2]float64{{0, 0.5}, {0.5, 0}, {1.5, 0.5}, {0.5, 1.5}} {
		if _, err := NewHolt(bad[0], bad[1]); err == nil {
			t.Fatalf("factors %v accepted", bad)
		}
	}
	if _, err := NewHolt(0.5, 0.5); err != nil {
		t.Fatal(err)
	}
}

func TestHoltTracksLinearTrend(t *testing.T) {
	// On a pure ramp, Holt's one-step forecast converges to the true next
	// value while a plain EWMA lags behind by a constant offset.
	h, _ := NewHolt(0.5, 0.3)
	f, _ := NewFilter(0.5)
	var holtErr, ewmaErr float64
	for i := 0; i < 300; i++ {
		x := float64(i) * 2 // slope 2 ramp
		if i > 200 {
			holtErr += math.Abs(h.Forecast(1) - (x))
			ewmaErr += math.Abs(f.Value() - x)
		}
		h.Update(x)
		f.Update(x)
	}
	if holtErr >= ewmaErr/2 {
		t.Fatalf("Holt error %v must clearly beat EWMA %v on a ramp", holtErr, ewmaErr)
	}
}

func TestHoltPrimeAndReset(t *testing.T) {
	h, _ := NewHolt(0.4, 0.4)
	if h.Primed() {
		t.Fatal("fresh filter primed")
	}
	if got := h.Update(10); got != 10 {
		t.Fatalf("first update = %v", got)
	}
	if !h.Primed() {
		t.Fatal("not primed after update")
	}
	h.Reset()
	if h.Primed() || h.Forecast(1) != 0 {
		t.Fatal("reset incomplete")
	}
}

func TestHoltConstantSeriesZeroTrend(t *testing.T) {
	h, _ := NewHolt(0.3, 0.3)
	for i := 0; i < 100; i++ {
		h.Update(42)
	}
	if math.Abs(h.Forecast(5)-42) > 1e-9 {
		t.Fatalf("constant series forecast = %v", h.Forecast(5))
	}
}
