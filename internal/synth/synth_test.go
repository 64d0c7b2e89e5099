package synth

import (
	"math"
	"testing"

	"triplec/internal/frame"
)

func testSeq(t *testing.T, seed uint64) *Sequence {
	t.Helper()
	cfg := DefaultConfig(seed)
	cfg.Width, cfg.Height = 128, 128
	cfg.MarkerSpacing = 30
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	cfg := DefaultConfig(1)
	cfg.Width = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for zero width")
	}
	cfg = DefaultConfig(1)
	cfg.MarkerSpacing = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("expected error for zero spacing")
	}
}

func TestDeterminism(t *testing.T) {
	a := testSeq(t, 99)
	b := testSeq(t, 99)
	fa, ta := a.Frame(17)
	fb, tb := b.Frame(17)
	if !fa.Equal(fb) {
		t.Fatal("same config must render identical frames")
	}
	if ta != tb {
		t.Fatalf("truth mismatch: %+v vs %+v", ta, tb)
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := testSeq(t, 1)
	b := testSeq(t, 2)
	fa, _ := a.Frame(0)
	fb, _ := b.Frame(0)
	if fa.Equal(fb) {
		t.Fatal("different seeds must render different frames")
	}
}

func TestFrameOrderIndependence(t *testing.T) {
	a := testSeq(t, 5)
	f10First, _ := a.Frame(10)
	_, _ = a.Frame(3)
	f10Again, _ := a.Frame(10)
	if !f10First.Equal(f10Again) {
		t.Fatal("Frame(i) must not depend on call order")
	}
}

func TestMarkerSpacingMatchesPrior(t *testing.T) {
	s := testSeq(t, 7)
	for i := 0; i < 50; i++ {
		tr := s.Truth(i)
		if math.Abs(tr.Spacing-30) > 1e-6 {
			t.Fatalf("frame %d spacing = %v, want 30", i, tr.Spacing)
		}
	}
}

func TestMarkersMove(t *testing.T) {
	s := testSeq(t, 7)
	t0 := s.Truth(0)
	t5 := s.Truth(5)
	if t0.MarkerA == t5.MarkerA {
		t.Fatal("markers must move between frames")
	}
}

func TestMarkersAreDarkSpots(t *testing.T) {
	s := testSeq(t, 11)
	f, tr := s.Frame(0)
	if !tr.MarkersVisible {
		t.Skip("frame 0 is a dropout frame in this config")
	}
	ax, ay := int(tr.MarkerA[0]), int(tr.MarkerA[1])
	marker := float64(f.At(ax, ay))
	// Compare with a point well away from the couple.
	bg := f.MeanValue()
	if marker > bg-3000 {
		t.Fatalf("marker not dark enough: marker=%v background=%v", marker, bg)
	}
}

func TestContrastScheduling(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Width, cfg.Height = 64, 64
	cfg.ContrastEvery, cfg.ContrastLen = 10, 3
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		want := i%10 < 3
		if got := s.Truth(i).ContrastActive; got != want {
			t.Fatalf("frame %d contrast = %v, want %v", i, got, want)
		}
	}
}

func TestContrastDisabled(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.Width, cfg.Height = 64, 64
	cfg.ContrastEvery = 0
	s, _ := New(cfg)
	for i := 0; i < 20; i++ {
		if s.Truth(i).ContrastActive {
			t.Fatal("contrast must stay off when disabled")
		}
	}
}

func TestContrastDarkensVessels(t *testing.T) {
	cfg := DefaultConfig(13)
	cfg.Width, cfg.Height = 128, 128
	cfg.NoiseSigma, cfg.QuantumGain = 0, 0 // noiseless for a clean comparison
	cfg.ClutterRate = 0
	cfg.ContrastEvery, cfg.ContrastLen = 2, 1 // alternate on/off
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fOn, trOn := s.Frame(0)
	fOff, trOff := s.Frame(1)
	if !trOn.ContrastActive || trOff.ContrastActive {
		t.Fatal("contrast schedule unexpected")
	}
	if fOn.MeanValue() >= fOff.MeanValue() {
		t.Fatalf("contrast burst must darken the image: on=%v off=%v",
			fOn.MeanValue(), fOff.MeanValue())
	}
}

func TestDropoutFrames(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.Width, cfg.Height = 64, 64
	cfg.DropoutEvery = 5
	s, _ := New(cfg)
	visible, hidden := 0, 0
	for i := 0; i < 20; i++ {
		if s.Truth(i).MarkersVisible {
			visible++
		} else {
			hidden++
		}
	}
	if hidden != 4 || visible != 16 {
		t.Fatalf("dropout schedule: visible=%d hidden=%d", visible, hidden)
	}
}

func TestDropoutDisabled(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.Width, cfg.Height = 64, 64
	cfg.DropoutEvery = 0
	s, _ := New(cfg)
	for i := 0; i < 20; i++ {
		if !s.Truth(i).MarkersVisible {
			t.Fatal("markers must always be visible when dropout disabled")
		}
	}
}

func TestROIContainsMarkers(t *testing.T) {
	s := testSeq(t, 23)
	for i := 0; i < 40; i++ {
		tr := s.Truth(i)
		bounds := frame.R(0, 0, 128, 128)
		if tr.ROI != tr.ROI.Intersect(bounds) {
			t.Fatalf("frame %d ROI %v outside frame", i, tr.ROI)
		}
		for _, m := range [][2]float64{tr.MarkerA, tr.MarkerB} {
			x, y := int(m[0]), int(m[1])
			if bounds.Contains(x, y) && !tr.ROI.Contains(x, y) {
				t.Fatalf("frame %d ROI %v misses marker (%d,%d)", i, tr.ROI, x, y)
			}
		}
	}
}

func TestROISizeVaries(t *testing.T) {
	s := testSeq(t, 29)
	sizes := map[int]bool{}
	for i := 0; i < 100; i++ {
		sizes[s.Truth(i).ROI.Area()] = true
	}
	if len(sizes) < 2 {
		t.Fatal("ROI size must vary across frames (data-dependent size)")
	}
}

func TestTruthMatchesFrameTruth(t *testing.T) {
	s := testSeq(t, 31)
	_, trF := s.Frame(9)
	trT := s.Truth(9)
	if trF != trT {
		t.Fatalf("Frame truth %+v != Truth %+v", trF, trT)
	}
}

func TestClutterVaries(t *testing.T) {
	s := testSeq(t, 37)
	counts := map[int]bool{}
	for i := 0; i < 60; i++ {
		counts[s.Truth(i).ClutterBlobs] = true
	}
	if len(counts) < 3 {
		t.Fatal("clutter count must fluctuate (drives CPLS workload variance)")
	}
}

func TestPixelRangeSane(t *testing.T) {
	s := testSeq(t, 41)
	f, _ := s.Frame(4)
	lo, hi := f.MinMax()
	if hi == 0 {
		t.Fatal("frame is all black")
	}
	if lo == hi {
		t.Fatal("frame is constant")
	}
}

func TestTrainingSet(t *testing.T) {
	base := DefaultConfig(0)
	base.Width, base.Height = 64, 64
	seqs, err := TrainingSet(100, 5, 10, base)
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 5 {
		t.Fatalf("got %d sequences, want 5", len(seqs))
	}
	// Sequences must differ from each other.
	f0, _ := seqs[0].Frame(0)
	f1, _ := seqs[1].Frame(0)
	if f0.Equal(f1) {
		t.Fatal("training sequences must differ")
	}
	// And be reproducible.
	again, err := TrainingSet(100, 5, 10, base)
	if err != nil {
		t.Fatal(err)
	}
	g0, _ := again[0].Frame(0)
	if !f0.Equal(g0) {
		t.Fatal("training set must be deterministic")
	}
}

func TestTrainingSetValidation(t *testing.T) {
	base := DefaultConfig(0)
	if _, err := TrainingSet(1, 0, 10, base); err == nil {
		t.Fatal("expected error for n = 0")
	}
	if _, err := TrainingSet(1, 3, 0, base); err == nil {
		t.Fatal("expected error for framesPer = 0")
	}
}

func TestGuideWireConnectsMarkers(t *testing.T) {
	cfg := DefaultConfig(43)
	cfg.Width, cfg.Height = 128, 128
	cfg.NoiseSigma, cfg.QuantumGain = 0, 0
	cfg.ClutterRate = 0
	cfg.DropoutEvery = 0
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, tr := s.Frame(2)
	// Sample the midpoint between the markers: it must be darker than the
	// background because the wire passes through it.
	mx := (tr.MarkerA[0] + tr.MarkerB[0]) / 2
	my := (tr.MarkerA[1] + tr.MarkerB[1]) / 2
	mid := float64(f.At(int(mx), int(my)))
	bgSample := float64(f.At(int(mx)+20, int(my)-20))
	if mid >= bgSample {
		t.Fatalf("wire midpoint %v not darker than background %v", mid, bgSample)
	}
}
