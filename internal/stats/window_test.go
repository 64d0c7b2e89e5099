package stats

import (
	"sync"
	"testing"
)

// naiveRate is the reference: the true fraction of the last (at most)
// BitWindowSize entries of the full push history.
func naiveRate(hist []bool) (float64, int) {
	if len(hist) > BitWindowSize {
		hist = hist[len(hist)-BitWindowSize:]
	}
	if len(hist) == 0 {
		return 0, 0
	}
	ones := 0
	for _, b := range hist {
		if b {
			ones++
		}
	}
	return float64(ones) / float64(len(hist)), len(hist)
}

// TestBitWindowMatchesNaiveTail drives the window and a plain []bool history
// with the same 10^4 random pushes and occasional resets; rate and sample
// count must agree after every step, below and past the 64-sample capacity.
func TestBitWindowMatchesNaiveTail(t *testing.T) {
	rng := NewRNG(64)
	var w BitWindow
	var hist []bool
	check := func(step int) {
		t.Helper()
		wantRate, wantN := naiveRate(hist)
		gotRate, gotN := w.Rate()
		if gotRate != wantRate || gotN != wantN {
			t.Fatalf("step %d: window %v over %d, reference %v over %d",
				step, gotRate, gotN, wantRate, wantN)
		}
	}
	check(-1)
	sawShort, sawFull := false, false
	p := 0.5
	for i := 0; i < 10000; i++ {
		switch {
		case rng.Intn(700) == 0:
			w.Reset()
			hist = hist[:0]
		case rng.Intn(100) == 0:
			p = rng.Float64() // drift between mostly-false and mostly-true stretches
		}
		b := rng.Float64() < p
		w.Push(b)
		hist = append(hist, b)
		check(i)
		if len(hist) < BitWindowSize {
			sawShort = true
		} else if len(hist) > 2*BitWindowSize {
			sawFull = true
		}
	}
	if !sawShort || !sawFull {
		t.Fatalf("coverage: short windows %v, saturated windows %v", sawShort, sawFull)
	}
}

// TestBitWindowOneWriterManyReaders is the -race witness of the
// single-writer/any-reader contract: a reader spinning on Rate while the
// writer pushes only ever sees a well-formed window. The writer pushes true
// exclusively, so any exact window — the only kind a reader may see — has
// rate 1 over 1..64 samples (or is still empty).
func TestBitWindowOneWriterManyReaders(t *testing.T) {
	var w BitWindow
	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				rate, n := w.Rate()
				if n < 0 || n > BitWindowSize || (n > 0 && rate != 1) || (n == 0 && rate != 0) {
					t.Errorf("reader saw rate %v over %d samples", rate, n)
					return
				}
			}
		}()
	}
	for i := 0; i < 20000; i++ {
		w.Push(true)
	}
	close(done)
	wg.Wait()
	if rate, n := w.Rate(); rate != 1 || n != BitWindowSize {
		t.Fatalf("final window %v over %d, want 1 over %d", rate, n, BitWindowSize)
	}
}
