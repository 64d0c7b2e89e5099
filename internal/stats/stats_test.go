package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestMeanBasic(t *testing.T) {
	if got := Mean([]float64{1, 2, 3, 4}); got != 2.5 {
		t.Fatalf("Mean = %v, want 2.5", got)
	}
}

func TestMeanEmpty(t *testing.T) {
	if got := Mean(nil); got != 0 {
		t.Fatalf("Mean(nil) = %v, want 0", got)
	}
}

func TestVarianceConstantSeries(t *testing.T) {
	if got := Variance([]float64{5, 5, 5, 5}); got != 0 {
		t.Fatalf("Variance of constant series = %v, want 0", got)
	}
}

func TestVarianceKnown(t *testing.T) {
	// Population variance of {2,4,4,4,5,5,7,9} is 4.
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Variance(xs); !almostEqual(got, 4, 1e-12) {
		t.Fatalf("Variance = %v, want 4", got)
	}
	if got := StdDev(xs); !almostEqual(got, 2, 1e-12) {
		t.Fatalf("StdDev = %v, want 2", got)
	}
}

func TestVarianceShortSeries(t *testing.T) {
	if got := Variance([]float64{3}); got != 0 {
		t.Fatalf("Variance of single element = %v, want 0", got)
	}
}

func TestMinMax(t *testing.T) {
	xs := []float64{3, -1, 7, 0}
	if Min(xs) != -1 || Max(xs) != 7 {
		t.Fatalf("Min/Max = %v/%v, want -1/7", Min(xs), Max(xs))
	}
}

func TestMinPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Min(nil) did not panic")
		}
	}()
	Min(nil)
}

func TestMaxPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Max(nil) did not panic")
		}
	}()
	Max(nil)
}

func TestSum(t *testing.T) {
	if got := Sum([]float64{1.5, 2.5, -1}); got != 3 {
		t.Fatalf("Sum = %v, want 3", got)
	}
}

func TestPercentileMedian(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	got, err := Percentile(xs, 50)
	if err != nil || got != 3 {
		t.Fatalf("Percentile(50) = %v, %v; want 3", got, err)
	}
}

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{0, 10}
	got, err := Percentile(xs, 25)
	if err != nil || !almostEqual(got, 2.5, 1e-12) {
		t.Fatalf("Percentile(25) = %v, %v; want 2.5", got, err)
	}
}

func TestPercentileErrors(t *testing.T) {
	if _, err := Percentile(nil, 50); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, err := Percentile([]float64{1}, 101); err == nil {
		t.Fatal("expected error for out-of-range p")
	}
	if _, err := Percentile([]float64{1}, -1); err == nil {
		t.Fatal("expected error for negative p")
	}
}

func TestPercentileSingle(t *testing.T) {
	got, err := Percentile([]float64{42}, 99)
	if err != nil || got != 42 {
		t.Fatalf("Percentile of singleton = %v, %v", got, err)
	}
}

func TestAutocorrelationLagZeroIsOne(t *testing.T) {
	xs := []float64{1, 3, 2, 5, 4, 6, 2, 8}
	acf, err := Autocorrelation(xs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(acf[0], 1, 1e-12) {
		t.Fatalf("acf[0] = %v, want 1", acf[0])
	}
}

func TestAutocorrelationConstantSeries(t *testing.T) {
	acf, err := Autocorrelation([]float64{2, 2, 2, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if acf[0] != 1 || acf[1] != 0 || acf[2] != 0 {
		t.Fatalf("constant-series acf = %v, want [1 0 0]", acf)
	}
}

func TestAutocorrelationEmpty(t *testing.T) {
	if _, err := Autocorrelation(nil, 2); err == nil {
		t.Fatal("expected error")
	}
}

func TestAutocorrelationClampsLag(t *testing.T) {
	acf, err := Autocorrelation([]float64{1, 2, 3}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(acf) != 3 {
		t.Fatalf("acf length = %d, want 3 (lags 0..2)", len(acf))
	}
}

func TestAutocorrelationAR1Decay(t *testing.T) {
	// An AR(1) process x[t] = phi*x[t-1] + noise has acf[lag] ~ phi^lag.
	rng := NewRNG(7)
	const phi = 0.8
	xs := make([]float64, 20000)
	for i := 1; i < len(xs); i++ {
		xs[i] = phi*xs[i-1] + rng.Norm(0, 1)
	}
	acf, err := Autocorrelation(xs, 5)
	if err != nil {
		t.Fatal(err)
	}
	for lag := 1; lag <= 5; lag++ {
		want := math.Pow(phi, float64(lag))
		if !almostEqual(acf[lag], want, 0.05) {
			t.Fatalf("acf[%d] = %v, want ~%v", lag, acf[lag], want)
		}
	}
}

func TestExponentialDecayFitRecovery(t *testing.T) {
	// Construct an exact exponential acf and recover its rate.
	const lambda = 0.35
	acf := make([]float64, 12)
	for lag := range acf {
		acf[lag] = math.Exp(-lambda * float64(lag))
	}
	got, res, err := ExponentialDecayFit(acf)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(got, lambda, 1e-9) {
		t.Fatalf("lambda = %v, want %v", got, lambda)
	}
	if res > 1e-9 {
		t.Fatalf("residual = %v, want ~0", res)
	}
}

func TestExponentialDecayFitInsufficient(t *testing.T) {
	if _, _, err := ExponentialDecayFit([]float64{1, -0.2, 0.1}); err == nil {
		t.Fatal("expected error with no positive prefix of length >= 2")
	}
}

func TestLinearFitExact(t *testing.T) {
	xs := []float64{0, 1, 2, 3, 4}
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 0.067*x + 20.6 // the paper's Eq. 3
	}
	a, b, r2, err := LinearFit(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(a, 0.067, 1e-12) || !almostEqual(b, 20.6, 1e-12) {
		t.Fatalf("fit = %v, %v; want 0.067, 20.6", a, b)
	}
	if !almostEqual(r2, 1, 1e-12) {
		t.Fatalf("r2 = %v, want 1", r2)
	}
}

func TestLinearFitErrors(t *testing.T) {
	if _, _, _, err := LinearFit([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length-mismatch error")
	}
	if _, _, _, err := LinearFit([]float64{1}, []float64{1}); err == nil {
		t.Fatal("expected error for n < 2")
	}
	if _, _, _, err := LinearFit([]float64{2, 2}, []float64{1, 5}); err == nil {
		t.Fatal("expected degenerate-x error")
	}
}

func TestHistogramBasic(t *testing.T) {
	counts, edges, err := Histogram([]float64{0, 0.5, 1, 1.5, 2}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 3 {
		t.Fatalf("edges = %v", edges)
	}
	if counts[0]+counts[1] != 5 {
		t.Fatalf("histogram lost samples: %v", counts)
	}
	// Max value must land in the last bin.
	if counts[1] < 1 {
		t.Fatalf("max value not in last bin: %v", counts)
	}
}

func TestHistogramDegenerate(t *testing.T) {
	counts, _, err := Histogram([]float64{3, 3, 3}, 4)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 3 {
		t.Fatalf("histogram of constant series lost samples: %v", counts)
	}
}

func TestHistogramErrors(t *testing.T) {
	if _, _, err := Histogram(nil, 3); err == nil {
		t.Fatal("expected error for empty input")
	}
	if _, _, err := Histogram([]float64{1}, 0); err == nil {
		t.Fatal("expected error for nbins < 1")
	}
}

func TestJitterOf(t *testing.T) {
	// Mean 100, max 120 -> worst-vs-avg gap 20% (the paper's semi-auto figure).
	xs := []float64{80, 100, 100, 120}
	j, err := JitterOf(xs)
	if err != nil {
		t.Fatal(err)
	}
	if j.Mean != 100 || j.Max != 120 {
		t.Fatalf("unexpected jitter summary: %+v", j)
	}
	if !almostEqual(j.WorstVsAvg, 0.2, 1e-12) {
		t.Fatalf("WorstVsAvg = %v, want 0.2", j.WorstVsAvg)
	}
}

func TestJitterOfEmpty(t *testing.T) {
	if _, err := JitterOf(nil); err == nil {
		t.Fatal("expected error")
	}
}

func TestMAPEPerfectPrediction(t *testing.T) {
	actual := []float64{10, 20, 30}
	mape, err := MeanAbsPercentError(actual, actual)
	if err != nil || mape != 0 {
		t.Fatalf("MAPE = %v, %v; want 0", mape, err)
	}
}

func TestMAPEKnown(t *testing.T) {
	pred := []float64{11, 18}
	act := []float64{10, 20}
	mape, err := MeanAbsPercentError(pred, act)
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mape, 0.1, 1e-12) { // (10% + 10%) / 2
		t.Fatalf("MAPE = %v, want 0.1", mape)
	}
}

func TestMAPESkipsZeros(t *testing.T) {
	mape, err := MeanAbsPercentError([]float64{5, 11}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(mape, 0.1, 1e-12) {
		t.Fatalf("MAPE = %v, want 0.1", mape)
	}
}

func TestMAPEErrors(t *testing.T) {
	if _, err := MeanAbsPercentError([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("expected length mismatch error")
	}
	if _, err := MeanAbsPercentError(nil, nil); err == nil {
		t.Fatal("expected empty error")
	}
	if _, err := MeanAbsPercentError([]float64{1}, []float64{0}); err == nil {
		t.Fatal("expected all-zero error")
	}
}

func TestMaxAbsPercentError(t *testing.T) {
	worst, err := MaxAbsPercentError([]float64{11, 26}, []float64{10, 20})
	if err != nil {
		t.Fatal(err)
	}
	if !almostEqual(worst, 0.3, 1e-12) {
		t.Fatalf("worst = %v, want 0.3", worst)
	}
}

func TestMaxAbsPercentErrorEmpty(t *testing.T) {
	if _, err := MaxAbsPercentError([]float64{1}, []float64{0}); err == nil {
		t.Fatal("expected error when all actuals are zero")
	}
}

// Property: variance is non-negative and invariant under shifts.
func TestPropertyVarianceShiftInvariant(t *testing.T) {
	f := func(raw []int8, shift int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		vx, vy := Variance(xs), Variance(ys)
		return vx >= 0 && almostEqual(vx, vy, 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the mean lies between min and max.
func TestPropertyMeanBounded(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		m := Mean(xs)
		return m >= Min(xs)-1e-9 && m <= Max(xs)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: histogram conserves sample count.
func TestPropertyHistogramConservesMass(t *testing.T) {
	f := func(raw []int8, nb uint8) bool {
		if len(raw) == 0 {
			return true
		}
		nbins := int(nb)%16 + 1
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		counts, _, err := Histogram(xs, nbins)
		if err != nil {
			return false
		}
		total := 0
		for _, c := range counts {
			total += c
		}
		return total == len(xs)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: percentile is monotone in p.
func TestPropertyPercentileMonotone(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		prev := math.Inf(-1)
		for p := 0.0; p <= 100; p += 10 {
			v, err := Percentile(xs, p)
			if err != nil || v < prev-1e-9 {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must give same stream")
		}
	}
}

func TestRNGZeroSeedRemapped(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not produce the all-zero fixed point")
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(1)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(2)
	for i := 0; i < 1000; i++ {
		v := r.Intn(7)
		if v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %v", v)
		}
	}
}

func TestRNGIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(3).Intn(0)
}

func TestRNGNormMoments(t *testing.T) {
	r := NewRNG(11)
	const n = 200000
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = r.Norm(10, 3)
	}
	if m := Mean(xs); !almostEqual(m, 10, 0.05) {
		t.Fatalf("Norm mean = %v, want ~10", m)
	}
	if s := StdDev(xs); !almostEqual(s, 3, 0.05) {
		t.Fatalf("Norm stddev = %v, want ~3", s)
	}
}

func TestRNGPoissonMean(t *testing.T) {
	r := NewRNG(13)
	for _, lambda := range []float64{0.5, 4, 50} {
		sum := 0
		const n = 50000
		for i := 0; i < n; i++ {
			sum += r.Poisson(lambda)
		}
		got := float64(sum) / n
		if !almostEqual(got, lambda, lambda*0.05+0.05) {
			t.Fatalf("Poisson(%v) mean = %v", lambda, got)
		}
	}
}

func TestRNGPoissonNonPositive(t *testing.T) {
	r := NewRNG(17)
	if r.Poisson(0) != 0 || r.Poisson(-3) != 0 {
		t.Fatal("Poisson of non-positive rate must be 0")
	}
}

func TestRNGPermIsPermutation(t *testing.T) {
	r := NewRNG(19)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if v < 0 || v >= 20 || seen[v] {
			t.Fatalf("not a permutation: %v", p)
		}
		seen[v] = true
	}
}

func TestRNGRange(t *testing.T) {
	r := NewRNG(23)
	for i := 0; i < 1000; i++ {
		v := r.Range(5, 8)
		if v < 5 || v >= 8 {
			t.Fatalf("Range out of bounds: %v", v)
		}
	}
}

func TestPearsonPerfectCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{10, 20, 30, 40}
	r, err := Pearson(xs, ys)
	if err != nil || !almostEqual(r, 1, 1e-12) {
		t.Fatalf("Pearson = %v, %v; want 1", r, err)
	}
	neg := []float64{40, 30, 20, 10}
	r, err = Pearson(xs, neg)
	if err != nil || !almostEqual(r, -1, 1e-12) {
		t.Fatalf("Pearson = %v, want -1", r)
	}
}

func TestPearsonUncorrelated(t *testing.T) {
	rng := NewRNG(3)
	xs := make([]float64, 10000)
	ys := make([]float64, 10000)
	for i := range xs {
		xs[i] = rng.Norm(0, 1)
		ys[i] = rng.Norm(0, 1)
	}
	r, err := Pearson(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	if r > 0.05 || r < -0.05 {
		t.Fatalf("independent series correlation = %v", r)
	}
}

func TestPearsonErrors(t *testing.T) {
	if _, err := Pearson([]float64{1}, []float64{1, 2}); err == nil {
		t.Fatal("length mismatch accepted")
	}
	if _, err := Pearson([]float64{1}, []float64{1}); err == nil {
		t.Fatal("single sample accepted")
	}
	if _, err := Pearson([]float64{2, 2}, []float64{1, 3}); err == nil {
		t.Fatal("constant series accepted")
	}
}
