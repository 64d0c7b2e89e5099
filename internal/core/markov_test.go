package core

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"triplec/internal/stats"
)

func TestStateCountRule(t *testing.T) {
	// Series with Cmax/sigma = 2 -> 2M = 4 states.
	xs := []float64{-2, -1, 0, 1, 2, -2, 2, 0, 1, -1}
	sigma := stats.StdDev(xs)
	want := 2 * int(math.Round(2/sigma))
	if got := StateCountRule(xs, 100); got != want {
		t.Fatalf("StateCountRule = %d, want %d", got, want)
	}
}

func TestStateCountRuleClamps(t *testing.T) {
	if StateCountRule(nil, 10) != 2 {
		t.Fatal("empty series must give 2 states")
	}
	if StateCountRule([]float64{5, 5, 5}, 10) != 2 {
		t.Fatal("constant series must give 2 states")
	}
	// A heavy-tailed series would want many states; the cap must bite.
	xs := make([]float64, 100)
	xs[0] = 1000
	if got := StateCountRule(xs, 10); got != 10 {
		t.Fatalf("cap ignored: %d", got)
	}
}

func TestQuantizerEqualFrequency(t *testing.T) {
	// 100 uniform samples, 4 states: each interval must hold ~25 samples.
	rng := stats.NewRNG(5)
	samples := make([]float64, 100)
	for i := range samples {
		samples[i] = rng.Float64()
	}
	q, err := NewQuantizer(samples, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.States() != 4 {
		t.Fatalf("states = %d, want 4", q.States())
	}
	counts := make([]int, 4)
	for _, s := range samples {
		counts[q.State(s)]++
	}
	for i, c := range counts {
		if c < 15 || c > 35 {
			t.Fatalf("interval %d holds %d samples, want ~25 (equal frequency)", i, c)
		}
	}
}

func TestQuantizerDegenerateTies(t *testing.T) {
	// All-equal samples collapse to a single state without error.
	q, err := NewQuantizer([]float64{7, 7, 7, 7}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.States() != 1 {
		t.Fatalf("tied samples must collapse: %d states", q.States())
	}
	if q.Representative(0) != 7 {
		t.Fatalf("representative = %v, want 7", q.Representative(0))
	}
}

func TestQuantizerValidation(t *testing.T) {
	if _, err := NewQuantizer(nil, 3); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := NewQuantizer([]float64{1}, 0); err == nil {
		t.Fatal("zero states accepted")
	}
}

func TestQuantizerStateMonotone(t *testing.T) {
	q, err := NewQuantizer([]float64{1, 2, 3, 4, 5, 6, 7, 8}, 4)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1
	for x := 0.0; x <= 9; x += 0.25 {
		s := q.State(x)
		if s < prev {
			t.Fatalf("State not monotone at %v", x)
		}
		prev = s
	}
}

func TestQuantizerRepresentativeClamps(t *testing.T) {
	q, _ := NewQuantizer([]float64{1, 2, 3, 4}, 2)
	if q.Representative(-5) != q.Representative(0) {
		t.Fatal("negative state must clamp")
	}
	if q.Representative(99) != q.Representative(q.States()-1) {
		t.Fatal("overflow state must clamp")
	}
}

func TestChainEq2Probabilities(t *testing.T) {
	// Hand-built transitions: states {0:low, 1:high} with cut at 5.
	q, err := NewQuantizer([]float64{0, 1, 2, 9, 10, 11}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewChain(q)
	if err != nil {
		t.Fatal(err)
	}
	// low->low twice, low->high once.
	c.AddTransition(1, 2)
	c.AddTransition(2, 1)
	c.AddTransition(1, 10)
	if got := c.P(0, 0); math.Abs(got-2.0/3) > 1e-12 {
		t.Fatalf("P(0,0) = %v, want 2/3 (Eq. 2)", got)
	}
	if got := c.P(0, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Fatalf("P(0,1) = %v, want 1/3", got)
	}
}

func TestChainUnseenRowUniform(t *testing.T) {
	q, _ := NewQuantizer([]float64{0, 10}, 2)
	c, _ := NewChain(q)
	if got := c.P(1, 0); got != 0.5 {
		t.Fatalf("unseen row must be uniform, got %v", got)
	}
}

func TestChainNilQuantizer(t *testing.T) {
	if _, err := NewChain(nil); err == nil {
		t.Fatal("nil quantizer accepted")
	}
}

func TestTrainChainValidation(t *testing.T) {
	if _, err := TrainChain(nil, 10); err == nil {
		t.Fatal("no data accepted")
	}
	if _, err := TrainChain([][]float64{{1}}, 10); err == nil {
		t.Fatal("single sample accepted")
	}
}

func TestTrainDoesNotCrossSeries(t *testing.T) {
	// Two series whose concatenation would create a low->high transition;
	// training must not count it.
	q, err := NewQuantizer([]float64{0, 0, 0, 100, 100, 100}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, _ := NewChain(q)
	c.AddSeries([]float64{0, 0, 0})
	c.AddSeries([]float64{100, 100, 100})
	if got := c.P(0, 1); got != 0 {
		t.Fatalf("cross-series transition counted: P(0,1) = %v", got)
	}
}

func TestMatrixRowsSumToOne(t *testing.T) {
	rng := stats.NewRNG(9)
	series := make([]float64, 2000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.7*series[i-1] + rng.Norm(0, 1)
	}
	c, err := TrainChain([][]float64{series}, 10)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.States(); i++ {
		sum := 0.0
		for j := 0; j < c.States(); j++ {
			sum += c.P(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestExpectedNextTracksAR1(t *testing.T) {
	// For a strongly autocorrelated process, predicting with the chain must
	// clearly beat predicting the global mean.
	rng := stats.NewRNG(21)
	series := make([]float64, 5000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.9*series[i-1] + rng.Norm(0, 1)
	}
	train, test := series[:4000], series[4000:]
	c, err := TrainChain([][]float64{train}, 10)
	if err != nil {
		t.Fatal(err)
	}
	mean := stats.Mean(train)
	var chainErr, meanErr float64
	for i := 1; i < len(test); i++ {
		chainErr += math.Abs(c.ExpectedNext(test[i-1]) - test[i])
		meanErr += math.Abs(mean - test[i])
	}
	if chainErr >= meanErr*0.75 {
		t.Fatalf("chain prediction (%v) must beat mean prediction (%v) by >25%%", chainErr, meanErr)
	}
}

func TestRenderTable2aLayout(t *testing.T) {
	rng := stats.NewRNG(44)
	series := make([]float64, 3000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.8*series[i-1] + rng.Norm(0, 1)
	}
	c, err := TrainChain([][]float64{series}, 10)
	if err != nil {
		t.Fatal(err)
	}
	out := c.Render()
	if !strings.Contains(out, "s0") {
		t.Fatalf("render missing state labels:\n%s", out)
	}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != c.States()+1 {
		t.Fatalf("render has %d lines, want %d", len(lines), c.States()+1)
	}
}

// Property: every value maps to a valid state, and representatives are
// ordered (monotone quantizer).
func TestPropertyQuantizerSane(t *testing.T) {
	f := func(raw []int16, nRaw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		n := int(nRaw)%12 + 1
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		q, err := NewQuantizer(samples, n)
		if err != nil {
			return false
		}
		prevRep := math.Inf(-1)
		for s := 0; s < q.States(); s++ {
			r := q.Representative(s)
			if r < prevRep-1e-9 {
				return false
			}
			prevRep = r
		}
		for _, x := range samples {
			s := q.State(x)
			if s < 0 || s >= q.States() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: Eq. 2 rows always sum to 1 after arbitrary transitions.
func TestPropertyRowsNormalized(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 4 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		c, err := TrainChain([][]float64{samples}, 6)
		if err != nil {
			return true // degenerate inputs may fail training; not a bug
		}
		for i := 0; i < c.States(); i++ {
			sum := 0.0
			for j := 0; j < c.States(); j++ {
				sum += c.P(i, j)
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := stats.NewRNG(55)
	series := make([]float64, 1000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.7*series[i-1] + rng.Norm(0, 1)
	}
	c, err := TrainChain([][]float64{series}, 8)
	if err != nil {
		t.Fatal(err)
	}
	cuts, reps := c.q.Snapshot()
	q2, err := RestoreQuantizer(cuts, reps)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := RestoreChain(q2, c.Counts())
	if err != nil {
		t.Fatal(err)
	}
	// Identical predictions over a probe grid.
	for x := -5.0; x <= 5; x += 0.5 {
		if math.Abs(c.ExpectedNext(x)-c2.ExpectedNext(x)) > 1e-12 {
			t.Fatalf("restored chain differs at %v", x)
		}
	}
}

func TestRestoreQuantizerValidation(t *testing.T) {
	if _, err := RestoreQuantizer([]float64{1, 2}, []float64{0, 1}); err == nil {
		t.Fatal("reps/cuts length mismatch accepted")
	}
	if _, err := RestoreQuantizer([]float64{2, 1}, []float64{0, 1, 2}); err == nil {
		t.Fatal("non-increasing cuts accepted")
	}
	if _, err := RestoreQuantizer([]float64{1, 2}, []float64{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreChainValidation(t *testing.T) {
	q, err := RestoreQuantizer([]float64{5}, []float64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreChain(q, [][]float64{{1, 0}}); err == nil {
		t.Fatal("wrong row count accepted")
	}
	if _, err := RestoreChain(q, [][]float64{{1}, {0}}); err == nil {
		t.Fatal("non-square matrix accepted")
	}
	if _, err := RestoreChain(q, [][]float64{{1, 0}, {0, 1}}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotIsACopy(t *testing.T) {
	q, _ := NewQuantizer([]float64{1, 2, 3, 4}, 2)
	cuts, reps := q.Snapshot()
	if len(cuts) > 0 {
		cuts[0] = 9999
	}
	reps[0] = 9999
	cuts2, reps2 := q.Snapshot()
	if (len(cuts) > 0 && cuts2[0] == 9999) || reps2[0] == 9999 {
		t.Fatal("Snapshot must copy")
	}
}

func TestEqualWidthQuantizer(t *testing.T) {
	q, err := NewEqualWidthQuantizer([]float64{0, 1, 2, 3, 4, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if q.States() != 5 {
		t.Fatalf("states = %d, want 5", q.States())
	}
	// Interval width = 2: values 0..1 state 0, 10 in the last state.
	if q.State(0) != 0 || q.State(10) != 4 {
		t.Fatalf("states: %d, %d", q.State(0), q.State(10))
	}
	// The skewed sample puts most mass in the low states — the opposite of
	// equal frequency.
	counts := make([]int, 5)
	for _, x := range []float64{0, 1, 2, 3, 4, 10} {
		counts[q.State(x)]++
	}
	if counts[0] < 2 {
		t.Fatalf("equal width must pile up low samples: %v", counts)
	}
}

func TestEqualWidthQuantizerEmptyIntervalRepresentative(t *testing.T) {
	q, err := NewEqualWidthQuantizer([]float64{0, 10}, 5)
	if err != nil {
		t.Fatal(err)
	}
	// Middle intervals have no samples; representatives must still be
	// meaningful midpoints, monotone across states.
	prev := math.Inf(-1)
	for s := 0; s < q.States(); s++ {
		r := q.Representative(s)
		if r < prev {
			t.Fatalf("representatives not monotone at state %d", s)
		}
		prev = r
	}
}

func TestEqualWidthQuantizerValidation(t *testing.T) {
	if _, err := NewEqualWidthQuantizer(nil, 3); err == nil {
		t.Fatal("empty samples accepted")
	}
	if _, err := NewEqualWidthQuantizer([]float64{1}, 0); err == nil {
		t.Fatal("zero states accepted")
	}
}

func TestEqualWidthQuantizerConstantSamples(t *testing.T) {
	q, err := NewEqualWidthQuantizer([]float64{5, 5, 5}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if q.States() != 1 {
		t.Fatalf("constant samples must collapse to one state, got %d", q.States())
	}
	if q.Representative(0) != 5 {
		t.Fatalf("representative = %v", q.Representative(0))
	}
}

func TestTrainWithQuantizer(t *testing.T) {
	q, err := NewEqualWidthQuantizer([]float64{0, 1, 8, 9}, 2)
	if err != nil {
		t.Fatal(err)
	}
	c, err := TrainWithQuantizer(q, [][]float64{{0, 1, 8, 9, 0}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < c.States(); i++ {
		sum := 0.0
		for j := 0; j < c.States(); j++ {
			sum += c.P(i, j)
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("row %d sums to %v", i, sum)
		}
	}
}

func TestTrainOrder2Validation(t *testing.T) {
	if _, err := TrainOrder2(nil, 10); err == nil {
		t.Fatal("no data accepted")
	}
	if _, err := TrainOrder2([][]float64{{1, 2}}, 10); err == nil {
		t.Fatal("too-short series accepted")
	}
}

func TestOrder2DeterministicPattern(t *testing.T) {
	// The periodic pattern 0,0,9, 0,0,9, ... is ambiguous for an order-1
	// chain at state 0 (next is 0 or 9 with equal counts) but fully
	// determined at order 2.
	var series []float64
	for i := 0; i < 60; i++ {
		series = append(series, 0, 0, 9)
	}
	c2, err := TrainOrder2([][]float64{series}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// After (9, 0) the next is 0; after (0, 0) the next is 9.
	if got := c2.ExpectedNext(9, 0); math.Abs(got-0) > 0.5 {
		t.Fatalf("ExpectedNext(9,0) = %v, want ~0", got)
	}
	if got := c2.ExpectedNext(0, 0); math.Abs(got-9) > 0.5 {
		t.Fatalf("ExpectedNext(0,0) = %v, want ~9", got)
	}

	// The order-1 chain cannot disambiguate: from state 0 the expectation
	// sits between the two successors.
	c1, err := TrainChain([][]float64{series}, 4)
	if err != nil {
		t.Fatal(err)
	}
	exp1 := c1.ExpectedNext(0)
	if exp1 < 2 || exp1 > 7 {
		t.Fatalf("order-1 expectation from 0 = %v, want ambiguous midrange", exp1)
	}
}

func TestOrder2SparsityDiagnostics(t *testing.T) {
	rng := stats.NewRNG(5)
	series := make([]float64, 300)
	for i := 1; i < len(series); i++ {
		series[i] = 0.8*series[i-1] + rng.Norm(0, 1)
	}
	c2, err := TrainOrder2([][]float64{series}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if c2.PairStates() != c2.q.States()*c2.q.States() {
		t.Fatal("PairStates wrong")
	}
	// With 300 samples over states^2 pairs, many pairs must be unseen —
	// the paper's statistical-significance problem.
	if c2.q.States() >= 6 && c2.ObservedPairs() >= c2.PairStates() {
		t.Fatalf("expected sparsity: observed %d of %d pairs", c2.ObservedPairs(), c2.PairStates())
	}
}

func TestOrder2UnseenPairFallback(t *testing.T) {
	series := []float64{0, 0, 9, 0, 0, 9, 0, 0, 9}
	c2, err := TrainOrder2([][]float64{series}, 4)
	if err != nil {
		t.Fatal(err)
	}
	// The pair (9, 9) never occurs; the fallback must return a finite value
	// within the data range.
	got := c2.ExpectedNext(9, 9)
	if math.IsNaN(got) || got < 0 || got > 9 {
		t.Fatalf("fallback ExpectedNext = %v", got)
	}
}

// Order-1 vs order-2 on an AR(1): order 2 must not be catastrophically
// worse despite its sparsity (it degrades gracefully via the fallback).
func TestOrder2GracefulOnAR1(t *testing.T) {
	rng := stats.NewRNG(11)
	series := make([]float64, 4000)
	for i := 1; i < len(series); i++ {
		series[i] = 0.85*series[i-1] + rng.Norm(0, 1)
	}
	train, test := series[:3000], series[3000:]
	c1, err := TrainChain([][]float64{train}, 10)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := TrainOrder2([][]float64{train}, 10)
	if err != nil {
		t.Fatal(err)
	}
	var e1, e2 float64
	for i := 2; i < len(test); i++ {
		e1 += math.Abs(c1.ExpectedNext(test[i-1]) - test[i])
		e2 += math.Abs(c2.ExpectedNext(test[i-2], test[i-1]) - test[i])
	}
	if e2 > e1*1.3 {
		t.Fatalf("order-2 error %v vs order-1 %v: degraded too much", e2, e1)
	}
}
