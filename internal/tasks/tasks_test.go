package tasks

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/platform"
	"triplec/internal/synth"
)

// Integrated returns how many frames the enhancer's current stack holds.
func (e *Enhancer) Integrated() int { return e.acc.Frames() }

// cleanSeq returns a low-noise 128x128 sequence whose ground truth the task
// chain should recover reliably.
func cleanSeq(t *testing.T, seed uint64) *synth.Sequence {
	t.Helper()
	cfg := synth.DefaultConfig(seed)
	cfg.Width, cfg.Height = 128, 128
	cfg.MarkerSpacing = 36
	cfg.NoiseSigma = 250
	cfg.QuantumGain = 0
	cfg.ClutterRate = 2
	cfg.DropoutEvery = 0
	s, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func params() CostParams { return DefaultCostParams(128 * 128) }

// runStriped is rdg.Run with both passes striped over k host stripes.
func runStriped(rdg *RidgeDetector, in *frame.Frame, k int) (*RidgeResult, platform.Cost) {
	rdg.Stripes = parallel.NewHostStripes(k)
	defer func() { rdg.Stripes.Close(); rdg.Stripes = nil }()
	return rdg.Run(in)
}

func TestDefaultCostParamsScale(t *testing.T) {
	p := DefaultCostParams(256 * 256)
	if p.PixelScale != 16 {
		t.Fatalf("PixelScale = %v, want 16", p.PixelScale)
	}
	if DefaultCostParams(0).PixelScale != 1 {
		t.Fatal("zero frame pixels must default scale to 1")
	}
}

func TestRidgeDetectorFindsVessels(t *testing.T) {
	s := cleanSeq(t, 3)
	// Use a contrast frame so vessels are strongly visible.
	f, tr := s.Frame(0)
	if !tr.ContrastActive {
		t.Skip("expected frame 0 in contrast burst with default schedule")
	}
	rdg := NewRidgeDetector(params())
	res, cost := rdg.Run(f)
	if res.RidgePixels == 0 {
		t.Fatal("no ridge pixels found on a contrast frame")
	}
	if res.RidgePixels < f.Pixels()/100 {
		t.Fatalf("contrast frame must show dominant structures (%d ridge px)", res.RidgePixels)
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
}

func TestRidgeDetectorEmptyFrame(t *testing.T) {
	rdg := NewRidgeDetector(params())
	res, _ := rdg.Run(frame.New(0, 0))
	if res.RidgePixels != 0 {
		t.Fatal("empty frame must yield no ridges")
	}
}

func TestRidgeDetectorFlatFrameNoRidges(t *testing.T) {
	f := frame.New(64, 64)
	f.Fill(30000)
	rdg := NewRidgeDetector(params())
	res, _ := rdg.Run(f)
	if res.RidgePixels != 0 {
		t.Fatalf("flat frame produced %d ridge pixels", res.RidgePixels)
	}
}

func TestRidgeDetectorCostGrowsWithRidgeContent(t *testing.T) {
	rdg := NewRidgeDetector(params())
	flat := frame.New(64, 64)
	flat.Fill(30000)
	_, costFlat := rdg.Run(flat)

	lines := frame.New(64, 64)
	lines.Fill(30000)
	for x := 0; x < 64; x += 8 {
		for y := 0; y < 64; y++ {
			lines.Set(x, y, 8000)
		}
	}
	res, costLines := rdg.Run(lines)
	if res.RidgePixels == 0 {
		t.Fatal("line frame produced no ridge pixels")
	}
	if costLines.Cycles <= costFlat.Cycles {
		t.Fatal("data-dependent cost must grow with ridge content")
	}
}

func TestRidgeDetectorROIVariantCheaper(t *testing.T) {
	s := cleanSeq(t, 5)
	f, tr := s.Frame(0)
	rdg := NewRidgeDetector(params())
	_, costFull := rdg.Run(f)
	_, costROI := rdg.Run(f.SubFrame(tr.ROI))
	if costROI.Cycles >= costFull.Cycles {
		t.Fatalf("ROI run must be cheaper: %v vs %v", costROI.Cycles, costFull.Cycles)
	}
}

func TestStructureDetector(t *testing.T) {
	det := NewStructureDetector(params())
	s := cleanSeq(t, 7)
	fContrast, tr := s.Frame(0)
	if !tr.ContrastActive {
		t.Skip("unexpected schedule")
	}
	on, cost := det.Run(fContrast)
	if !on {
		t.Fatal("detector must fire on a contrast frame")
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	flat := frame.New(128, 128)
	flat.Fill(30000)
	off, _ := det.Run(flat)
	if off {
		t.Fatal("detector must not fire on a flat frame")
	}
}

func TestStructureDetectorTinyFrame(t *testing.T) {
	det := NewStructureDetector(params())
	on, _ := det.Run(frame.New(4, 4))
	if on {
		t.Fatal("tiny frame must not fire")
	}
}

// gradientAt is the central-difference gradient at (x, y) with replicate
// borders, one AtClamped per tap.
func gradientAt(f *frame.Frame, x, y int) (gx, gy float64) {
	gx = (float64(f.AtClamped(x+1, y)) - float64(f.AtClamped(x-1, y))) / 2
	gy = (float64(f.AtClamped(x, y+1)) - float64(f.AtClamped(x, y-1))) / 2
	return gx, gy
}

// hessianAt is the central-difference Hessian at (x, y) with replicate
// borders, one AtClamped per tap.
func hessianAt(f *frame.Frame, x, y int) frame.Hessian {
	c := float64(f.AtClamped(x, y))
	return frame.Hessian{
		XX: float64(f.AtClamped(x+1, y)) - 2*c + float64(f.AtClamped(x-1, y)),
		YY: float64(f.AtClamped(x, y+1)) - 2*c + float64(f.AtClamped(x, y-1)),
		XY: (float64(f.AtClamped(x+1, y+1)) - float64(f.AtClamped(x-1, y+1)) -
			float64(f.AtClamped(x+1, y-1)) + float64(f.AtClamped(x-1, y-1))) / 4,
	}
}

// TestStructureDetectorMatchesPerPixelGradient pins the row-sliced energy
// sweep to the loop it replaced — one gradient stencil per pixel, summed
// in the same row-major order — bit for bit, so switch 1 fires on exactly
// the frames it fired on: clean and noisy sequence frames, and downsampled
// images two and three pixels wide or high, which are border all over.
func TestStructureDetectorMatchesPerPixelGradient(t *testing.T) {
	reference := func(f *frame.Frame) float64 {
		energy := 0.0
		for y := 0; y < f.Height(); y++ {
			for x := 0; x < f.Width(); x++ {
				gx, gy := gradientAt(f, x, y)
				energy += math.Abs(gx) + math.Abs(gy)
			}
		}
		return energy
	}
	noisyCfg := synth.DefaultConfig(9)
	noisyCfg.Width, noisyCfg.Height = 128, 128
	noisy, err := synth.New(noisyCfg)
	if err != nil {
		t.Fatal(err)
	}
	cleanFrames := cleanSeq(t, 7)
	var inputs []*frame.Frame
	for _, fi := range []int{0, 20, 45} {
		clean, _ := cleanFrames.Frame(fi)
		grainy, _ := noisy.Frame(fi)
		inputs = append(inputs, clean, grainy, grainy.SubFrame(frame.R(13, 40, 13+57, 40+30)))
	}
	full := inputs[1]
	for _, g := range [][2]int{{8, 8}, {8, 12}, {12, 8}, {12, 12}, {9, 64}, {64, 15}} {
		inputs = append(inputs, full.SubFrame(frame.R(30, 20, 30+g[0], 20+g[1])))
	}
	det := NewStructureDetector(params())
	for _, in := range inputs {
		w, h := in.Width()/4, in.Height()/4
		small := frame.Resize(in, w, h)
		want := reference(small)
		if got := gradientEnergy(small); got != want {
			t.Fatalf("%v: gradient energy %v, want %v", in.Bounds, got, want)
		}
		wantOn := want/float64(w*h)*math.Sqrt(float64(in.Pixels())) >= det.EnergyThreshold
		if on, _ := det.Run(in); on != wantOn {
			t.Fatalf("%v: detector fired = %v, want %v", in.Bounds, on, wantOn)
		}
	}
}

// branchyAbs is the abs both detectors used before they went branch-free.
func branchyAbs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

// floatGradientEnergy is gradientEnergy as it was: |Δ|/2 terms summed in a
// float64, one branching abs per term.
func floatGradientEnergy(f *frame.Frame) float64 {
	w, h := f.Width(), f.Height()
	energy := 0.0
	for y := 0; y < h; y++ {
		up := f.Pix[max(y-1, 0)*w:][:w]
		mid := f.Pix[y*w:][:w]
		down := f.Pix[min(y+1, h-1)*w:][:w]
		for x := 0; x < w; x++ {
			xl, xr := max(x-1, 0), min(x+1, w-1)
			energy += branchyAbs((float64(mid[xr])-float64(mid[xl]))/2) +
				branchyAbs((float64(down[x])-float64(up[x]))/2)
		}
	}
	return energy
}

// extremeFrame is w x h pixels drawn from 0, 65535 and uniform noise, the
// inputs whose differences and blurs reach the ends of the 16-bit range.
func extremeFrame(rng *rand.Rand, w, h int) *frame.Frame {
	f := frame.New(w, h)
	for i := range f.Pix {
		switch rng.Intn(3) {
		case 0:
		case 1:
			f.Pix[i] = 65535
		default:
			f.Pix[i] = uint16(rng.Intn(65536))
		}
	}
	return f
}

// TestGradientEnergyMatchesFloatSum: the integer sum halved once is the float
// sum of halves, bit for bit, up to frames of all-65535 steps.
func TestGradientEnergyMatchesFloatSum(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	checker := frame.New(256, 256)
	for i := range checker.Pix {
		if (i/256+i%256)%2 == 0 {
			checker.Pix[i] = 65535
		}
	}
	inputs := []*frame.Frame{checker, frame.New(2, 2)}
	for _, g := range [][2]int{{2, 2}, {2, 9}, {9, 2}, {3, 3}, {17, 5}, {128, 128}, {255, 129}} {
		inputs = append(inputs, extremeFrame(rng, g[0], g[1]))
		noise := frame.New(g[0], g[1])
		for i := range noise.Pix {
			noise.Pix[i] = uint16(rng.Intn(65536))
		}
		inputs = append(inputs, noise)
	}
	for _, f := range inputs {
		want := floatGradientEnergy(f)
		if got := gradientEnergy(f); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%dx%d: gradient energy %v, want %v", f.Width(), f.Height(), got, want)
		}
	}
}

// storedResponseRows is responseRows as it was: it reads a stored 16-bit
// blurred frame, one uint16 conversion per tap, takes a branching abs for the
// anisotropy gate and sends the one-pixel border through hessianAt.
func storedResponseRows(r *RidgeDetector, vals []float64, smoothed *frame.Frame, lo, hi int) float64 {
	b := smoothed.Bounds
	width, height := b.Width(), b.Height()
	border := func(xx, yy int) float64 {
		l1, l2 := hessianAt(smoothed, b.X0+xx, b.Y0+yy).Eigenvalues()
		if l1 > 0 && branchyAbs(l1) >= r.Anisotropy*(branchyAbs(l2)+1) {
			return l1
		}
		return 0
	}
	maxResp := 0.0
	for yy := lo; yy < hi; yy++ {
		out := vals[yy*width : (yy+1)*width]
		if yy == 0 || yy == height-1 || width < 3 {
			for xx := range out {
				out[xx] = border(xx, yy)
				maxResp = max(maxResp, out[xx])
			}
			continue
		}
		up := smoothed.Pix[(yy-1)*smoothed.Stride:][:width]
		mid := smoothed.Pix[yy*smoothed.Stride:][:width]
		down := smoothed.Pix[(yy+1)*smoothed.Stride:][:width]
		out[0], out[width-1] = border(0, yy), border(width-1, yy)
		maxResp = max(maxResp, out[0], out[width-1])
		for xx := 1; xx < width-1; xx++ {
			c := float64(mid[xx])
			hxx := float64(mid[xx+1]) - 2*c + float64(mid[xx-1])
			hyy := float64(down[xx]) - 2*c + float64(up[xx])
			hxy := (float64(down[xx+1]) - float64(down[xx-1]) -
				float64(up[xx+1]) + float64(up[xx-1])) / 4
			tr := hxx + hyy
			d := tr*tr/4 - (hxx*hyy - hxy*hxy)
			if d <= 0 {
				d = 0
			}
			disc := math.Sqrt(d)
			l1 := tr/2 + disc
			gate := r.Anisotropy * (branchyAbs(tr/2-disc) + 1)
			keep := ^(math.Float64bits(tr) | math.Float64bits(l1-gate)) >> 63
			v := math.Float64frombits(math.Float64bits(l1) & -keep)
			maxResp = max(maxResp, v)
			out[xx] = v
		}
	}
	return maxResp
}

// TestRidgeResponseMatchesStoredBlur pins the blur-to-Hessian ring to the
// sweep over a stored blurred frame it replaced: every response bit, the
// maximum and the mask, for stripe counts 1 to 4, odd and even ROI widths,
// views one and two pixels thin, and frames saturated at 0 and 65535.
func TestRidgeResponseMatchesStoredBlur(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	s := cleanSeq(t, 53)
	full, _ := s.Frame(20)
	wild := extremeFrame(rng, 96, 80)
	inputs := []*frame.Frame{full, wild, wild.SubFrame(frame.R(3, 5, 3+61, 5+37))}
	for _, w := range []int{1, 2, 3, 5, 33, 57, 64, 127} {
		inputs = append(inputs, full.SubFrame(frame.R(128-w, 11, 128, 11+47)))
	}
	for _, g := range [][2]int{{9, 1}, {7, 2}, {31, 3}} {
		inputs = append(inputs, wild.SubFrame(frame.R(1, 2, 1+g[0], 2+g[1])))
	}
	rdg := NewRidgeDetector(params())
	for _, in := range inputs {
		smoothed := frame.GaussianBlurInto(nil, in, rdg.Sigma)
		want := make([]float64, in.Pixels())
		wantMax := storedResponseRows(rdg, want, smoothed, 0, in.Height())
		for k := 1; k <= 4; k++ {
			got, _ := runStriped(rdg, in, k)
			for i, v := range rdg.vals[:in.Pixels()] {
				if math.Float64bits(v) != math.Float64bits(want[i]) {
					t.Fatalf("%v k=%d: response %d = %v, want %v", in.Bounds, k, i, v, want[i])
				}
			}
			wantPixels := 0
			if wantMax > 0 {
				wantPixels = rdg.maskRows(frame.New(in.Width(), in.Height()), want, wantMax, 0, in.Height())
			}
			if got.RidgePixels != wantPixels {
				t.Fatalf("%v k=%d: %d ridge pixels, want %d", in.Bounds, k, got.RidgePixels, wantPixels)
			}
			frame.Release(got.Mask)
		}
	}
}

func TestMarkerExtractorFindsTrueMarkers(t *testing.T) {
	s := cleanSeq(t, 11)
	f, tr := s.Frame(20) // outside the contrast burst
	mkx := NewMarkerExtractor(params())
	cands, cost := mkx.Run(f, nil)
	if len(cands) == 0 {
		t.Fatal("no candidates extracted")
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	// Both true markers must appear among the candidates within 3 px.
	for _, truth := range [][2]float64{tr.MarkerA, tr.MarkerB} {
		found := false
		for _, c := range cands {
			if math.Hypot(c.X-truth[0], c.Y-truth[1]) <= 3 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("true marker at %v not among %d candidates", truth, len(cands))
		}
	}
}

func TestMarkerExtractorEmptyAndTiny(t *testing.T) {
	mkx := NewMarkerExtractor(params())
	if cands, _ := mkx.Run(frame.New(0, 0), nil); cands != nil {
		t.Fatal("empty frame must yield no candidates")
	}
	if cands, _ := mkx.Run(frame.New(6, 6), nil); cands != nil {
		t.Fatal("tiny frame must yield no candidates")
	}
}

func TestMarkerExtractorCapsCandidates(t *testing.T) {
	cfg := synth.DefaultConfig(13)
	cfg.Width, cfg.Height = 128, 128
	cfg.ClutterRate = 40 // lots of spurious blobs
	cfg.DropoutEvery = 0
	s, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, _ := s.Frame(20)
	mkx := NewMarkerExtractor(params())
	cands, _ := mkx.Run(f, nil)
	if len(cands) > mkx.MaxCandidates {
		t.Fatalf("candidate cap violated: %d > %d", len(cands), mkx.MaxCandidates)
	}
}

func TestMarkerExtractorRidgeSuppression(t *testing.T) {
	// A frame with only a thick dark line: without the ridge mask the line
	// fragments may produce candidates; with the mask they must not.
	f := frame.New(128, 128)
	f.Fill(30000)
	for y := 20; y < 108; y++ {
		for x := 62; x <= 66; x++ {
			f.Set(x, y, 5000)
		}
	}
	rdg := NewRidgeDetector(params())
	res, _ := rdg.Run(f)
	if res.RidgePixels == 0 {
		t.Fatal("setup: ridge not detected")
	}
	mkx := NewMarkerExtractor(params())
	with, _ := mkx.Run(f, res)
	for _, c := range with {
		if c.X > 58 && c.X < 70 {
			t.Fatalf("ridge-suppressed extraction still found candidate on the line: %+v", c)
		}
	}
}

// floatMaskCandidates is MarkerExtractor.Run's candidate list as it was
// computed before the dark mask went integer: a float64 compare per pixel
// into a zeroed mask.
func floatMaskCandidates(m *MarkerExtractor, in *frame.Frame, ridge *RidgeResult) []Marker {
	w, h := in.Width()/2, in.Height()/2
	if w < 4 || h < 4 {
		return nil
	}
	small := frame.Resize(in, w, h)
	mean := small.MeanValue()
	varSum := 0.0
	for y := 0; y < h; y++ {
		for _, v := range small.Row(y) {
			d := float64(v) - mean
			varSum += d * d
		}
	}
	std := math.Sqrt(varSum / float64(w*h))
	thr := mean - m.DarkSigmas*std
	if m.UseOtsu {
		if otsu, err := frame.OtsuThreshold(small); err == nil {
			thr = float64(otsu)
			if thr > mean {
				thr = mean - m.DarkSigmas*std
			}
		}
	}
	if thr < 0 {
		thr = 0
	}
	mask := frame.New(w, h)
	for y := 0; y < h; y++ {
		mrow := mask.Row(y)
		for x, v := range small.Row(y) {
			if float64(v) < thr {
				mrow[x] = 1
			}
		}
	}
	var cands []Marker
	comps, _ := frame.LabelComponents(nil, nil, mask, small, m.MinBlob)
	for _, c := range comps {
		if c.Size > m.MaxBlob || c.Compact < m.MinCompact {
			continue
		}
		if ridge != nil && ridge.Mask != nil && m.ridgeOverlap(c, mask, ridge.Mask, in.Bounds) > 0.5 {
			continue
		}
		darkness := (mean - c.MeanVal) / (std + 1)
		if darkness <= 0 {
			continue
		}
		cands = append(cands, Marker{
			X:     float64(in.Bounds.X0) + c.CX*2 + 0.5,
			Y:     float64(in.Bounds.Y0) + c.CY*2 + 0.5,
			Score: darkness * c.Compact,
		})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Score > cands[j].Score })
	if len(cands) > m.MaxCandidates {
		cands = cands[:m.MaxCandidates]
	}
	return cands
}

// blockFrame is a 64x64 frame whose half-resolution pixels are a
// checkerboard of 2x2 cells of 100 and 300, with one 4x4 patch each of 199,
// 200 and 201 in place of as many 100s as 300s: the mean is exactly 200, a
// threshold some pixels equal.
func blockFrame() *frame.Frame {
	f := frame.New(64, 64)
	for y := 0; y < 64; y++ {
		for x := 0; x < 64; x++ {
			bx, by := x/2, y/2
			v := uint16(100)
			switch {
			case bx >= 4 && bx < 8 && by >= 4 && by < 8:
				v = 199
			case bx >= 12 && bx < 16 && by >= 4 && by < 8:
				v = 200
			case bx >= 20 && bx < 24 && by >= 4 && by < 8:
				v = 201
			case (bx/2+by/2)%2 == 1:
				v = 300
			}
			f.Set(x, y, v)
		}
	}
	return f
}

// TestMarkerExtractorMatchesFloatMask: the integer dark mask yields the
// candidates the float compare did, on sequence frames of several seeds with
// and without Otsu (whose threshold is always an integer) and a ridge mask,
// on views, and on frames whose threshold is exactly an integer some pixels
// equal (the mean, at DarkSigmas 0), or is clamped to 0.
func TestMarkerExtractorMatchesFloatMask(t *testing.T) {
	var inputs []*frame.Frame
	for _, seed := range []uint64{11, 13, 29, 47} {
		s := cleanSeq(t, seed)
		for _, fi := range []int{0, 20, 33, 57} {
			f, _ := s.Frame(fi)
			inputs = append(inputs, f, f.SubFrame(frame.R(9, 14, 9+77, 14+61)))
		}
	}
	flat := frame.New(64, 64)
	flat.Fill(30000)
	inputs = append(inputs, blockFrame(), flat)
	rdg := NewRidgeDetector(params())
	blocks := 0
	for _, sigmas := range []float64{2.2, 1, 0, 100} {
		for _, otsu := range []bool{false, true} {
			mkx := NewMarkerExtractor(params())
			mkx.DarkSigmas, mkx.UseOtsu = sigmas, otsu
			for i, in := range inputs {
				ridge, _ := rdg.Run(in)
				for _, r := range []*RidgeResult{nil, ridge} {
					got, _ := mkx.Run(in, r)
					want := floatMaskCandidates(mkx, in, r)
					if !slices.Equal(got, want) {
						t.Fatalf("input %d %v sigmas %v otsu %v: candidates\n got %+v\nwant %+v", i, in.Bounds, sigmas, otsu, got, want)
					}
					if i == len(inputs)-2 && len(got) > 0 {
						blocks++
					}
				}
				frame.Release(ridge.Mask)
			}
		}
	}
	if blocks == 0 {
		t.Fatal("setup: the block frame produced no candidates at any threshold")
	}
}

func TestCouplesSelectorPicksTrueCouple(t *testing.T) {
	s := cleanSeq(t, 17)
	f, tr := s.Frame(20)
	mkx := NewMarkerExtractor(params())
	cands, _ := mkx.Run(f, nil)
	cpls := NewCouplesSelector(s.Config().MarkerSpacing, params())
	couple, cost := cpls.Run(cands)
	if couple == nil {
		t.Fatal("no couple selected")
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	// The selected couple must match the true markers (order-insensitive).
	okA := math.Hypot(couple.A.X-tr.MarkerA[0], couple.A.Y-tr.MarkerA[1]) <= 3 ||
		math.Hypot(couple.A.X-tr.MarkerB[0], couple.A.Y-tr.MarkerB[1]) <= 3
	okB := math.Hypot(couple.B.X-tr.MarkerA[0], couple.B.Y-tr.MarkerA[1]) <= 3 ||
		math.Hypot(couple.B.X-tr.MarkerB[0], couple.B.Y-tr.MarkerB[1]) <= 3
	if !okA || !okB {
		t.Fatalf("selected couple %+v does not match truth %v/%v", couple, tr.MarkerA, tr.MarkerB)
	}
}

func TestCouplesSelectorQuadraticCost(t *testing.T) {
	cpls := NewCouplesSelector(40, params())
	mk := func(n int) []Marker {
		ms := make([]Marker, n)
		for i := range ms {
			ms[i] = Marker{X: float64(i) * 7, Y: 0, Score: 1}
		}
		return ms
	}
	_, c4 := cpls.Run(mk(4))
	_, c8 := cpls.Run(mk(8))
	base := baselineCycles
	// 8 candidates -> 28 pairs; 4 -> 6 pairs.
	ratio := (c8.Cycles - base) / (c4.Cycles - base)
	if math.Abs(ratio-28.0/6.0) > 1e-9 {
		t.Fatalf("pair cost ratio = %v, want %v", ratio, 28.0/6.0)
	}
}

func TestCouplesSelectorNoMatch(t *testing.T) {
	cpls := NewCouplesSelector(40, params())
	couple, _ := cpls.Run([]Marker{{X: 0}, {X: 200}})
	if couple != nil {
		t.Fatal("couple selected despite hopeless spacing")
	}
	if c, _ := cpls.Run(nil); c != nil {
		t.Fatal("empty candidate list must yield nil couple")
	}
}

func TestCouplesSelectorZeroSpacingPrior(t *testing.T) {
	cpls := NewCouplesSelector(0, params())
	if c, _ := cpls.Run([]Marker{{X: 0}, {X: 10}}); c != nil {
		t.Fatal("zero prior must select nothing")
	}
}

func TestRegistratorTracksMotion(t *testing.T) {
	s := cleanSeq(t, 19)
	mkx := NewMarkerExtractor(params())
	cpls := NewCouplesSelector(s.Config().MarkerSpacing, params())
	reg := NewRegistrator(params())

	f1, _ := s.Frame(20)
	f2, _ := s.Frame(21)
	c1Cands, _ := mkx.Run(f1, nil)
	c2Cands, _ := mkx.Run(f2, nil)
	c1, _ := cpls.Run(c1Cands)
	c2, _ := cpls.Run(c2Cands)
	if c1 == nil || c2 == nil {
		t.Fatal("setup: couples not found")
	}
	r, cost := reg.Run(f1, f2, c1, c2)
	if !r.OK {
		t.Fatalf("registration failed on consecutive clean frames: %+v", r)
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	// The estimated shift must match the truth-derived midpoint motion.
	t1 := s.Truth(20)
	t2 := s.Truth(21)
	wantDX := (t2.MarkerA[0]+t2.MarkerB[0])/2 - (t1.MarkerA[0]+t1.MarkerB[0])/2
	wantDY := (t2.MarkerA[1]+t2.MarkerB[1])/2 - (t1.MarkerA[1]+t1.MarkerB[1])/2
	if math.Abs(r.DX-wantDX) > 2 || math.Abs(r.DY-wantDY) > 2 {
		t.Fatalf("shift (%v,%v) deviates from truth (%v,%v)", r.DX, r.DY, wantDX, wantDY)
	}
}

func TestRegistratorNilInputs(t *testing.T) {
	reg := NewRegistrator(params())
	r, _ := reg.Run(nil, nil, nil, nil)
	if r.OK {
		t.Fatal("registration must fail without inputs")
	}
}

func TestRegistratorRejectsHugeMotion(t *testing.T) {
	reg := NewRegistrator(params())
	f := frame.New(64, 64)
	c1 := &Couple{A: Marker{X: 10, Y: 10}, B: Marker{X: 20, Y: 10}, Spacing: 10}
	c2 := &Couple{A: Marker{X: 50, Y: 55}, B: Marker{X: 60, Y: 55}, Spacing: 10}
	r, _ := reg.Run(f, f, c1, c2)
	if r.OK {
		t.Fatal("motion beyond MaxShift must fail the criterion")
	}
}

func TestROIEstimator(t *testing.T) {
	est := NewROIEstimator(params())
	bounds := frame.R(0, 0, 128, 128)
	c := &Couple{A: Marker{X: 40, Y: 60}, B: Marker{X: 76, Y: 60}, Spacing: 36}
	roi, cost := est.Run(c, bounds)
	if roi.Empty() {
		t.Fatal("ROI must not be empty")
	}
	if !roi.Contains(40, 60) || !roi.Contains(76, 60) {
		t.Fatalf("ROI %v must contain both markers", roi)
	}
	if roi != roi.Intersect(bounds) {
		t.Fatalf("ROI %v exceeds bounds", roi)
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	empty, _ := est.Run(nil, bounds)
	if !empty.Empty() {
		t.Fatal("nil couple must produce empty ROI")
	}
}

func TestROIEstimatorMinSize(t *testing.T) {
	est := NewROIEstimator(params())
	bounds := frame.R(0, 0, 128, 128)
	c := &Couple{A: Marker{X: 64, Y: 64}, B: Marker{X: 66, Y: 64}, Spacing: 2}
	roi, _ := est.Run(c, bounds)
	if roi.Width() < est.MinSize || roi.Height() < est.MinSize {
		t.Fatalf("ROI %v below minimum size", roi)
	}
}

// wireCoverage is the share of track samples with ridge evidence at which a
// guide wire counts as found.
const wireCoverage = 0.55

func TestGuideWireExtractorFindsWire(t *testing.T) {
	s := cleanSeq(t, 23)
	f, tr := s.Frame(20)
	gw := NewGuideWireExtractor(params())
	c := &Couple{
		A: Marker{X: tr.MarkerA[0], Y: tr.MarkerA[1]},
		B: Marker{X: tr.MarkerB[0], Y: tr.MarkerB[1]},
	}
	c.Spacing = c.A.Dist(c.B)
	cov, cost := gw.Run(f, c)
	if cov < wireCoverage {
		t.Fatalf("guide wire not found: coverage=%v", cov)
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
}

func TestGuideWireExtractorRejectsNoWire(t *testing.T) {
	f := frame.New(128, 128)
	f.Fill(30000)
	gw := NewGuideWireExtractor(params())
	c := &Couple{A: Marker{X: 30, Y: 30}, B: Marker{X: 90, Y: 90}}
	c.Spacing = c.A.Dist(c.B)
	cov, _ := gw.Run(f, c)
	if cov >= wireCoverage {
		t.Fatal("wire found on a flat frame")
	}
}

func TestGuideWireExtractorDegenerate(t *testing.T) {
	gw := NewGuideWireExtractor(params())
	if cov, _ := gw.Run(nil, &Couple{}); cov != 0 {
		t.Fatal("nil frame must not find a wire")
	}
	f := frame.New(32, 32)
	same := &Couple{A: Marker{X: 5, Y: 5}, B: Marker{X: 5.5, Y: 5}}
	if cov, _ := gw.Run(f, same); cov != 0 {
		t.Fatal("degenerate couple must not find a wire")
	}
	if cov, _ := gw.Run(f, nil); cov != 0 {
		t.Fatal("nil couple must not find a wire")
	}
}

func TestGuideWireCostGrowsWithSpacing(t *testing.T) {
	s := cleanSeq(t, 29)
	f, _ := s.Frame(20)
	gw := NewGuideWireExtractor(params())
	short := &Couple{A: Marker{X: 30, Y: 64}, B: Marker{X: 60, Y: 64}}
	long := &Couple{A: Marker{X: 10, Y: 64}, B: Marker{X: 110, Y: 64}}
	_, cShort := gw.Run(f, short)
	_, cLong := gw.Run(f, long)
	if cLong.Cycles <= cShort.Cycles {
		t.Fatal("GW cost must grow with track length")
	}
}

func TestEnhancerIntegratesAndReducesNoise(t *testing.T) {
	s := cleanSeq(t, 31)
	enh := NewEnhancer(64, 64, params())
	mkx := NewMarkerExtractor(params())
	cpls := NewCouplesSelector(s.Config().MarkerSpacing, params())

	var lastOut *frame.Frame
	added := 0
	for i := 20; i < 30; i++ {
		f, _ := s.Frame(i)
		cands, _ := mkx.Run(f, nil)
		c, _ := cpls.Run(cands)
		if c == nil {
			continue
		}
		out, cost := enh.Run(f, c)
		if out == nil {
			t.Fatalf("frame %d: enhancement returned nil", i)
		}
		if cost.Cycles <= 0 {
			t.Fatal("cost must be positive")
		}
		lastOut = out
		added++
	}
	if added < 5 {
		t.Fatalf("setup: only %d frames integrated", added)
	}
	if enh.Integrated() != added {
		t.Fatalf("Integrated = %d, want %d", enh.Integrated(), added)
	}
	// The enhanced view must keep the markers dark at the canvas anchor
	// positions: spacing occupies 40% of the canvas around the center.
	cx, cy := 32, 32
	mA := lastOut.At(cx-12, cy) // 12.8 px left of center
	if float64(mA) > lastOut.MeanValue() {
		t.Log("note: marker position brighter than mean; acceptable for noisy stacks")
	}
}

func TestEnhancerNilInputs(t *testing.T) {
	enh := NewEnhancer(32, 32, params())
	if out, _ := enh.Run(nil, &Couple{}); out != nil {
		t.Fatal("nil ROI must return nil")
	}
	if out, _ := enh.Run(frame.New(16, 16), nil); out != nil {
		t.Fatal("nil couple must return nil")
	}
}

func TestEnhancerWindowResets(t *testing.T) {
	enh := NewEnhancer(16, 16, params())
	enh.Window = 3
	f := frame.New(64, 64)
	f.Fill(100)
	c := &Couple{A: Marker{X: 20, Y: 32}, B: Marker{X: 44, Y: 32}, Spacing: 24}
	for i := 0; i < 7; i++ {
		if out, _ := enh.Run(f, c); out == nil {
			t.Fatal("enhancement returned nil")
		}
	}
	if enh.Integrated() > 3 {
		t.Fatalf("window not enforced: %d frames stacked", enh.Integrated())
	}
}

func TestEnhancerReset(t *testing.T) {
	enh := NewEnhancer(16, 16, params())
	f := frame.New(64, 64)
	c := &Couple{A: Marker{X: 20, Y: 32}, B: Marker{X: 44, Y: 32}, Spacing: 24}
	enh.Run(f, c)
	enh.Reset()
	if enh.Integrated() != 0 {
		t.Fatal("Reset must clear the stack")
	}
}

func TestZoomer(t *testing.T) {
	z := NewZoomer(96, 96, params())
	in := frame.New(32, 32)
	in.Fill(777)
	out, cost := z.Run(in)
	if out.Width() != 96 || out.Height() != 96 {
		t.Fatalf("zoom geometry: %dx%d", out.Width(), out.Height())
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	if out, _ := z.Run(nil); out != nil {
		t.Fatal("nil input must return nil")
	}
	if out, _ := z.Run(frame.New(0, 0)); out != nil {
		t.Fatal("empty input must return nil")
	}
}

func TestMarkerDist(t *testing.T) {
	a, b := Marker{X: 0, Y: 0}, Marker{X: 3, Y: 4}
	if a.Dist(b) != 5 {
		t.Fatalf("Dist = %v, want 5", a.Dist(b))
	}
}

func TestCoupleMid(t *testing.T) {
	c := Couple{A: Marker{X: 2, Y: 4}, B: Marker{X: 6, Y: 8}}
	x, y := c.Mid()
	if x != 4 || y != 6 {
		t.Fatalf("Mid = %v, %v", x, y)
	}
}

func TestAllNamesComplete(t *testing.T) {
	names := AllNames()
	if len(names) != 10 {
		t.Fatalf("AllNames = %d entries, want 10", len(names))
	}
	seen := map[Name]bool{}
	for _, n := range names {
		if seen[n] {
			t.Fatalf("duplicate name %s", n)
		}
		seen[n] = true
	}
}

// Table 2(b) calibration: at the paper's 1024x1024 geometry the constant
// tasks must land near their published values on the Blackford model.
func TestCostCalibrationMatchesTable2b(t *testing.T) {
	// Simulate full-geometry costs analytically via PixelScale.
	p := DefaultCostParams(1024 * 1024) // scale = 1
	toMs := func(cycles float64) float64 { return cycles / 2.327e9 * 1e3 }

	// ENH at the paper's full-frame granularity.
	enhCycles := p.pixCost(1024*1024, accumPerPixel) + baselineCycles
	if ms := toMs(enhCycles); math.Abs(ms-24) > 4 {
		t.Fatalf("ENH = %.1f ms, want ~24", ms)
	}
	// ZOOM at full-frame output.
	zoomCycles := p.pixCost(1024*1024, zoomPerPixel) + baselineCycles
	if ms := toMs(zoomCycles); math.Abs(ms-12.5) > 2.5 {
		t.Fatalf("ZOOM = %.1f ms, want ~12.5", ms)
	}
	// REG over two 33x33..65x65 patches: 2*65*65 px at RegPerPixel.
	regCycles := p.pixCost(2*65*65, regPerPixel) + baselineCycles
	if ms := toMs(regCycles); math.Abs(ms-2) > 1 {
		t.Fatalf("REG = %.2f ms, want ~2", ms)
	}
	// MKX on the half-resolution grid (512x512).
	mkxCycles := p.pixCost(512*512, thresholdPerPixel) +
		p.pixCost(512*512, ccPerPixel) + 10*scorePerComponent + baselineCycles
	if ms := toMs(mkxCycles); math.Abs(ms-2.5) > 1.2 {
		t.Fatalf("MKX = %.2f ms, want ~2.5", ms)
	}
	// RDG FULL base (without the data-dependent share) in Fig. 3's band.
	rdgCycles := p.pixCost(1024*1024, blurPerPixel) +
		p.pixCost(1024*1024, hessianPerPixel) + baselineCycles
	if ms := toMs(rdgCycles); ms < 30 || ms > 55 {
		t.Fatalf("RDG FULL base = %.1f ms, want within 30-55", ms)
	}
}

func TestMarkerExtractorOtsuOption(t *testing.T) {
	s := cleanSeq(t, 47)
	f, tr := s.Frame(20)
	mkx := NewMarkerExtractor(params())
	mkx.UseOtsu = true
	cands, cost := mkx.Run(f, nil)
	if len(cands) == 0 {
		t.Fatal("Otsu extraction found nothing")
	}
	if cost.Cycles <= 0 {
		t.Fatal("cost must be positive")
	}
	// The true markers must still be recovered.
	for _, truth := range [][2]float64{tr.MarkerA, tr.MarkerB} {
		found := false
		for _, c := range cands {
			if math.Hypot(c.X-truth[0], c.Y-truth[1]) <= 3 {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("Otsu extraction missed the true marker at %v", truth)
		}
	}
}

func TestMarkerExtractorOtsuFallbackOnFlat(t *testing.T) {
	mkx := NewMarkerExtractor(params())
	mkx.UseOtsu = true
	flat := frame.New(64, 64)
	flat.Fill(30000)
	if cands, _ := mkx.Run(flat, nil); len(cands) != 0 {
		t.Fatalf("flat frame produced %d candidates", len(cands))
	}
}

// TestRunStripedMatchesRun: RDG striped over 1 to 8 host stripes returns
// the inline run's responses, mask, ridge pixel count and cost, on the
// 128x128 frames and on a 320x243 frame whose odd height splits into three
// unequal stripes.
func TestRunStripedMatchesRun(t *testing.T) {
	s := cleanSeq(t, 53)
	cfg := synth.DefaultConfig(53)
	cfg.Width, cfg.Height = 320, 243
	big, err := synth.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f0, _ := s.Frame(0)
	f20, _ := s.Frame(20)
	f5, _ := big.Frame(5)
	ref, rdg := NewRidgeDetector(params()), NewRidgeDetector(params())
	for fi, f := range []*frame.Frame{f0, f20, f5} {
		want, wantCost := ref.Run(f)
		for _, k := range []int{1, 2, 3, 4, 8} {
			got, gotCost := runStriped(rdg, f, k)
			if got.RidgePixels != want.RidgePixels {
				t.Fatalf("frame %d k=%d: ridge pixels %d != %d", fi, k, got.RidgePixels, want.RidgePixels)
			}
			if !got.Mask.Equal(want.Mask) || !slices.Equal(rdg.vals[:f.Pixels()], ref.vals[:f.Pixels()]) {
				t.Fatalf("frame %d k=%d: mask or responses differ", fi, k)
			}
			if gotCost != wantCost {
				t.Fatalf("frame %d k=%d: cost differs (%v vs %v)", fi, k, gotCost, wantCost)
			}
			frame.Release(got.Mask)
		}
		frame.Release(want.Mask)
	}
}

func TestRunStripedDegenerate(t *testing.T) {
	rdg := NewRidgeDetector(params())
	res, _ := runStriped(rdg, frame.New(0, 0), 4)
	if res.RidgePixels != 0 {
		t.Fatal("empty frame must yield no ridges")
	}
	f := frame.New(128, 128)
	f.Fill(30000)
	if res, _ := runStriped(rdg, f, 0); res.RidgePixels != 0 {
		t.Fatal("k=0 must clamp and work")
	}
	if res, _ := runStriped(rdg, f, 2); res.RidgePixels != 0 {
		t.Fatal("a flat frame has no ridges")
	}
}

// TestIndexOfMatchesAllNames: the hash-free IndexOf switch and AllNames
// both agree with the task table's row order.
func TestIndexOfMatchesAllNames(t *testing.T) {
	names := AllNames()
	if len(names) != NumNames {
		t.Fatalf("NumNames = %d, but AllNames has %d entries", NumNames, len(names))
	}
	for i, s := range Specs() {
		if got := IndexOf(s.Name); got != i || names[i] != s.Name {
			t.Fatalf("IndexOf(%s) = %d, AllNames[%d] = %s; want row %d", s.Name, got, i, names[i], i)
		}
		if got, ok := SpecOf(s.Name); !ok || got != s {
			t.Fatalf("SpecOf(%s) = %+v, %v; want row %d", s.Name, got, ok, i)
		}
	}
	if IndexOf("NOPE") != -1 {
		t.Fatal("unknown task must index to -1")
	}
	if s, ok := SpecOf("NOPE"); ok || s != (Spec{}) {
		t.Fatalf("SpecOf(unknown) = %+v, %v; want the zero row", s, ok)
	}
}

// TestSpecsChains: every chain label a model reads is trained by exactly
// one chain task, and only model tasks carry one.
func TestSpecsChains(t *testing.T) {
	trained := map[string]int{}
	for _, s := range Specs() {
		if s.Model == ModelChain {
			trained[s.Chain]++
		}
	}
	for _, s := range Specs() {
		switch {
		case s.Model == ModelConstant && s.Chain != "":
			t.Fatalf("constant task %s carries chain %q", s.Name, s.Chain)
		case s.Model != ModelConstant && trained[s.Chain] != 1:
			t.Fatalf("task %s reads chain %q, trained by %d tasks", s.Name, s.Chain, trained[s.Chain])
		}
	}
}

// ridgeReference is the ridge filter one pixel at a time, sharing no loop
// with the detector: its own two-pass AtClamped blur (the detector's tap
// order, rounded to 16 bits between the passes), then one hessianAt and one
// Eigenvalues call per pixel.
func ridgeReference(r *RidgeDetector, in *frame.Frame) (vals []float64, mask *frame.Frame, ridgePixels int) {
	wts := frame.GaussianKernel1D(r.Sigma)
	rad := len(wts) / 2
	blurPass := func(src *frame.Frame, dx, dy int) *frame.Frame {
		out := frame.New(in.Width(), in.Height())
		out.Bounds = in.Bounds
		for y := in.Bounds.Y0; y < in.Bounds.Y1; y++ {
			for x := in.Bounds.X0; x < in.Bounds.X1; x++ {
				acc := 0.0
				for i := -rad; i <= rad; i++ {
					acc += wts[i+rad] * float64(src.AtClamped(x+i*dx, y+i*dy))
				}
				out.Set(x, y, uint16(math.Min(math.Max(acc, 0), 65535)+0.5))
			}
		}
		return out
	}
	smoothed := blurPass(blurPass(in, 1, 0), 0, 1)
	maxResp := 0.0
	for y := in.Bounds.Y0; y < in.Bounds.Y1; y++ {
		for x := in.Bounds.X0; x < in.Bounds.X1; x++ {
			l1, l2 := hessianAt(smoothed, x, y).Eigenvalues()
			v := 0.0
			if l1 > 0 && math.Abs(l1) >= r.Anisotropy*(math.Abs(l2)+1) {
				v = l1
			}
			vals = append(vals, v)
			maxResp = math.Max(maxResp, v)
		}
	}
	mask = frame.New(in.Width(), in.Height())
	mask.Bounds = in.Bounds
	for i, v := range vals {
		if v > 0 && v >= r.RelThreshold*maxResp {
			mask.Pix[i] = 0xFFFF
			ridgePixels++
		}
	}
	return vals, mask, ridgePixels
}

func TestRidgeDetectorMatchesPerPixelReference(t *testing.T) {
	s := cleanSeq(t, 53)
	full, _ := s.Frame(20)
	inputs := []*frame.Frame{full, full.SubFrame(frame.R(17, 9, 90, 71))}
	// Views narrower or shorter than the 3x3 Hessian support have no
	// interior; the sweep must fall back to the clamped taps everywhere.
	for _, g := range [][2]int{{1, 1}, {1, 9}, {9, 1}, {2, 2}, {2, 7}, {3, 3}, {3, 8}, {8, 3}} {
		inputs = append(inputs, full.SubFrame(frame.R(40, 30, 40+g[0], 30+g[1])))
	}
	// Below an anisotropy of 1 a pixel whose eigenvalues tie in magnitude
	// responds, which is where the sweep's trace test could cut too early.
	for _, anisotropy := range []float64{0.5, 1, 1.8} {
		rdg := NewRidgeDetector(params())
		rdg.Anisotropy = anisotropy
		for _, in := range inputs {
			wantVals, wantMask, wantPixels := ridgeReference(rdg, in)
			if in == full && wantPixels == 0 {
				t.Fatal("setup: the reference frame has no ridge pixels")
			}
			for _, k := range []int{1, 2, 3, 4, 8} {
				got, _ := runStriped(rdg, in, k)
				if got.RidgePixels != wantPixels {
					t.Fatalf("anisotropy %v %v k=%d: %d ridge pixels, want %d", anisotropy, in.Bounds, k, got.RidgePixels, wantPixels)
				}
				if !slices.Equal(rdg.vals[:in.Pixels()], wantVals) || !got.Mask.Equal(wantMask) {
					t.Fatalf("anisotropy %v %v k=%d: responses or mask differ from the per-pixel reference", anisotropy, in.Bounds, k)
				}
			}
		}
	}
}

// enhancerReference is one Enhancer.Run canvas as a BilinearAt call per
// pixel — the loop the tap tables replaced.
func enhancerReference(e *Enhancer, roi *frame.Frame, c *Couple) *frame.Frame {
	scale := 1.0
	if c.Spacing > 0 {
		scale = 0.4 * float64(e.CanvasW) / c.Spacing
	}
	mx, my := c.Mid()
	canvas := frame.New(e.CanvasW, e.CanvasH)
	for y := 0; y < e.CanvasH; y++ {
		for x := 0; x < e.CanvasW; x++ {
			sx := mx + (float64(x)-float64(e.CanvasW)/2)/scale
			sy := my + (float64(y)-float64(e.CanvasH)/2)/scale
			switch v := frame.BilinearAt(roi, sx, sy); {
			case v <= 0:
			case v >= 65535:
				canvas.Pix[y*e.CanvasW+x] = 65535
			default:
				canvas.Pix[y*e.CanvasW+x] = uint16(v + 0.5)
			}
		}
	}
	return canvas
}

func TestEnhancerMatchesPerPixelReference(t *testing.T) {
	s := cleanSeq(t, 31)
	full, _ := s.Frame(20)
	view := full.SubFrame(frame.R(21, 13, 100, 97))
	couples := []*Couple{
		{A: Marker{X: 40, Y: 60}, B: Marker{X: 76, Y: 62}, Spacing: 36},
		{A: Marker{X: 40.3, Y: 60.7}, B: Marker{X: 47.1, Y: 55.2}, Spacing: 8.75}, // magnifies
		{A: Marker{X: 2, Y: 3}, B: Marker{X: 126, Y: 120}, Spacing: 170},          // canvas overhangs the frame
		{A: Marker{X: -500, Y: 900}, B: Marker{X: -400, Y: 950}, Spacing: 111},    // wholly outside
		{A: Marker{X: 60, Y: 60}, B: Marker{X: 60, Y: 60}, Spacing: 0},            // unit scale
		{A: Marker{X: 60, Y: 60}, B: Marker{X: 61, Y: 60}, Spacing: 1e-12},        // every tap on one pixel
		{A: Marker{X: 60, Y: 60}, B: Marker{X: 61, Y: 60}, Spacing: 5e17},         // taps at ±6e17
	}
	for _, roi := range []*frame.Frame{full, view} {
		for _, canvas := range [][2]int{{16, 16}, {33, 20}} {
			for i, c := range couples {
				enh := NewEnhancer(canvas[0], canvas[1], params())
				got, _ := enh.Run(roi, c)
				if got == nil {
					t.Fatalf("couple %d: enhancement returned nil", i)
				}
				// One integrated frame: the average is the canvas itself.
				if want := enhancerReference(enh, roi, c); !got.Equal(want) {
					t.Fatalf("roi %v canvas %v couple %d: canvas differs from the per-pixel reference", roi.Bounds, canvas, i)
				}
			}
		}
	}
}

// TestEnhancerStackMatchesReference runs one Enhancer for 360 frames, against
// the per-pixel canvas summed in a plain []uint32 and divided, frame by frame:
// the couples drift through real, magnifying, overhanging and wholly outside
// placements over a full frame and a view, the 250-frame window restarts the
// stack, and a Reset empties it partway.
func TestEnhancerStackMatchesReference(t *testing.T) {
	s := cleanSeq(t, 31)
	const window = 250
	enh := NewEnhancer(33, 20, params())
	enh.Window = window
	sums, n := make([]uint32, 33*20), 0
	want := frame.New(33, 20)
	for i := 0; i < 360; i++ {
		f, tr := s.Frame(20 + i%40)
		roi := f
		if i%3 == 2 {
			roi = f.SubFrame(frame.R(21, 13, 100, 97))
		}
		d := 0.31 * float64(i)
		var c *Couple
		switch i % 4 {
		case 0: // the sequence's own markers
			a, b := Marker{X: tr.MarkerA[0], Y: tr.MarkerA[1]}, Marker{X: tr.MarkerB[0], Y: tr.MarkerB[1]}
			c = &Couple{A: a, B: b, Spacing: a.Dist(b)}
		case 1: // magnifies
			c = &Couple{A: Marker{X: 40 + d/10, Y: 60}, B: Marker{X: 47 + d/10, Y: 55}, Spacing: 4 + float64(i%9)}
		case 2: // overhangs the frame
			c = &Couple{A: Marker{X: 2 - d/20, Y: 3}, B: Marker{X: 126, Y: 120 + d/20}, Spacing: 120 + d}
		default: // wholly outside
			c = &Couple{A: Marker{X: -500 - d, Y: 900}, B: Marker{X: -400 - d, Y: 950}, Spacing: 111}
		}
		if i == 120 {
			enh.Reset()
			clear(sums)
			n = 0
		}
		if n == window {
			clear(sums)
			n = 0
		}
		got, _ := enh.Run(roi, c)
		canvas := enhancerReference(enh, roi, c)
		n++
		for p, v := range canvas.Pix {
			sums[p] += uint32(v)
			want.Pix[p] = uint16(sums[p] / uint32(n))
		}
		if enh.Integrated() != n {
			t.Fatalf("frame %d: %d frames stacked, want %d", i, enh.Integrated(), n)
		}
		if !got.Equal(want) {
			t.Fatalf("frame %d (couple kind %d, %d stacked): average differs from the reference", i, i%4, n)
		}
	}
}

func TestEnhancerSteadyStateDoesNotAllocate(t *testing.T) {
	enh := NewEnhancer(64, 64, params())
	f := frame.New(96, 96)
	f.Fill(1234)
	c := &Couple{A: Marker{X: 30, Y: 48}, B: Marker{X: 66, Y: 48}, Spacing: 36}
	enh.Run(f, c) // builds the canvas, the average and the tap tables
	if avg := testing.AllocsPerRun(50, func() { enh.Run(f, c) }); avg != 0 {
		t.Fatalf("Enhancer.Run: %.1f allocs/op in steady state, want 0", avg)
	}
}

// TestEnhancerRestartsBeforeSumsWrap: with the default unbounded window an
// always-registered run would push the accumulator past the frame count its
// 32-bit sums can hold; the enhancer must restart the stack there instead.
func TestEnhancerRestartsBeforeSumsWrap(t *testing.T) {
	enh := NewEnhancer(2, 2, params())
	f := frame.New(8, 8)
	f.Fill(0xFFFF)
	c := &Couple{A: Marker{X: 3, Y: 4}, B: Marker{X: 5, Y: 4}, Spacing: 2}
	for i := 0; i < frame.AccumulatorMaxFrames; i++ {
		enh.Run(f, c)
	}
	if n := enh.Integrated(); n != frame.AccumulatorMaxFrames {
		t.Fatalf("setup: %d frames stacked, want %d", n, frame.AccumulatorMaxFrames)
	}
	for i := 1; i <= 3; i++ {
		out, _ := enh.Run(f, c)
		if enh.Integrated() != i {
			t.Fatalf("run %d on a full accumulator: %d frames stacked, want a restarted stack of %d", i, enh.Integrated(), i)
		}
		if lo, hi := out.MinMax(); lo != 0xFFFF || hi != 0xFFFF {
			t.Fatalf("run %d: average of saturated frames is [%d, %d], want 65535", i, lo, hi)
		}
	}
}

// registratorReference is Registrator.Run as the BilinearAt call per patch
// pixel the tap tables replaced.
func registratorReference(r *Registrator, prevFrame, curFrame *frame.Frame, prevCouple, curCouple *Couple) Registration {
	if prevFrame == nil || curFrame == nil || prevCouple == nil || curCouple == nil {
		return Registration{}
	}
	px, py := prevCouple.Mid()
	cx, cy := curCouple.Mid()
	reg := Registration{DX: cx - px, DY: cy - py}
	if math.Hypot(reg.DX, reg.DY) > r.MaxShift {
		return reg
	}
	res, n := 0.0, 0
	for _, pair := range [2][2]Marker{{prevCouple.A, curCouple.A}, {prevCouple.B, curCouple.B}} {
		for dy := -r.PatchRadius; dy <= r.PatchRadius; dy++ {
			for dx := -r.PatchRadius; dx <= r.PatchRadius; dx++ {
				a := frame.BilinearAt(prevFrame, pair[0].X+float64(dx), pair[0].Y+float64(dy))
				b := frame.BilinearAt(curFrame, pair[1].X+float64(dx), pair[1].Y+float64(dy))
				res += math.Abs(a - b)
				n++
			}
		}
	}
	if n > 0 {
		reg.Error = res / float64(n)
		reg.OK = reg.Error <= r.MaxResidual
	}
	return reg
}

func requireRegistration(t *testing.T, ctx string, r *Registrator, prev, cur *frame.Frame, pc, cc *Couple) {
	t.Helper()
	got, cost := r.Run(prev, cur, pc, cc)
	want := registratorReference(r, prev, cur, pc, cc)
	if math.Float64bits(got.Error) != math.Float64bits(want.Error) || got.OK != want.OK ||
		math.Float64bits(got.DX) != math.Float64bits(want.DX) || math.Float64bits(got.DY) != math.Float64bits(want.DY) {
		t.Fatalf("%s: registration %+v, want %+v", ctx, got, want)
	}
	wantCycles := 2 * 65 * 65 * regPerPixel
	if prev == nil || cur == nil {
		wantCycles = 0
	}
	if cost != r.Params.cost(wantCycles) {
		t.Fatalf("%s: cost %+v, want %+v", ctx, cost, r.Params.cost(wantCycles))
	}
}

// TestRegistratorMatchesPerPixelReference: the motion criterion through tap
// tables is the per-pixel BilinearAt double loop, bit for bit — on patches
// larger than the frame, hanging off every edge and corner, wholly outside,
// and on views whose parent holds other pixels just past the view's edge.
func TestRegistratorMatchesPerPixelReference(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	noise := func(w, h int) *frame.Frame {
		f := frame.New(w, h)
		for i := range f.Pix {
			f.Pix[i] = uint16(rng.Intn(65536))
		}
		return f
	}
	reg := NewRegistrator(params())
	for _, size := range [][2]int{{32, 32}, {128, 128}, {97, 41}, {1, 50}} {
		w, h := size[0], size[1]
		prevFull, curFull := noise(w, h), noise(w, h)
		view := frame.R(w/5, h/4, w-w/6, h-h/7)
		frames := [][2]*frame.Frame{
			{prevFull, curFull},
			{prevFull.SubFrame(view), curFull.SubFrame(view)},
			{prevFull, curFull.SubFrame(view)},
		}
		// Marker positions: every edge and corner, the middle, fractional
		// and integral, and far outside.
		xs := []float64{-40, -3.5, 0, 0.25, float64(w) / 2, float64(w) - 1, float64(w) + 2.75, float64(w) + 60}
		ys := []float64{-40, -0.5, 0, float64(h)/2 + 0.125, float64(h) - 1, float64(h) + 7.5, float64(h) + 60}
		for fi, fr := range frames {
			for _, x := range xs {
				for _, y := range ys {
					pc := &Couple{A: Marker{X: x, Y: y}, B: Marker{X: x + 9.3, Y: y - 4.1}, Spacing: 10}
					cc := &Couple{A: Marker{X: x + 1.7, Y: y + 0.6}, B: Marker{X: x + 11.2, Y: y - 3.3}, Spacing: 10}
					requireRegistration(t, fmt.Sprintf("%dx%d frames %d at (%v,%v)", w, h, fi, x, y), reg, fr[0], fr[1], pc, cc)
				}
			}
			for i := 0; i < 200; i++ {
				p := func() Marker {
					return Marker{X: (rng.Float64()*1.6 - 0.3) * float64(w), Y: (rng.Float64()*1.6 - 0.3) * float64(h)}
				}
				pc := &Couple{A: p(), B: p()}
				cc := &Couple{A: p(), B: p()}
				if i%2 == 0 { // a shift inside MaxShift, so the patches are compared
					cc = &Couple{A: Marker{X: pc.A.X + rng.Float64()*10, Y: pc.A.Y - rng.Float64()*10},
						B: Marker{X: pc.B.X + rng.Float64()*10, Y: pc.B.Y + rng.Float64()*10}}
				}
				requireRegistration(t, fmt.Sprintf("%dx%d frames %d random %d", w, h, fi, i), reg, fr[0], fr[1], pc, cc)
			}
		}
	}

	// Either side of MaxShift, a patch of one pixel and none at all, and the
	// inputs that skip the criterion.
	prev, cur := noise(64, 64), noise(64, 64)
	pc := &Couple{A: Marker{X: 20, Y: 30}, B: Marker{X: 40, Y: 30}}
	for _, shift := range []float64{math.Nextafter(reg.MaxShift, 0), reg.MaxShift, math.Nextafter(reg.MaxShift, 100)} {
		cc := &Couple{A: Marker{X: 20 + shift, Y: 30}, B: Marker{X: 40 + shift, Y: 30}}
		requireRegistration(t, fmt.Sprintf("shift %v", shift), reg, prev, cur, pc, cc)
	}
	for _, radius := range []int{0, -1, 3, 16} {
		r := NewRegistrator(params())
		r.PatchRadius = radius
		requireRegistration(t, fmt.Sprintf("radius %d", radius), r, prev, cur, pc, pc)
		requireRegistration(t, fmt.Sprintf("radius %d after a larger one", radius), reg, prev, cur, pc, pc)
	}
	empty := prev.SubFrame(frame.R(5, 5, 5, 9))
	requireRegistration(t, "empty previous frame", reg, empty, cur, pc, pc)
	requireRegistration(t, "nil frames", reg, nil, cur, pc, pc)
	requireRegistration(t, "nil current frame", reg, prev, nil, pc, pc)
	requireRegistration(t, "nil previous couple", reg, prev, cur, nil, pc)
	requireRegistration(t, "nil current couple", reg, prev, cur, pc, nil)
}

func TestRegistratorSteadyStateDoesNotAllocate(t *testing.T) {
	reg := NewRegistrator(params())
	f := frame.New(96, 96)
	f.Fill(1234)
	pc := &Couple{A: Marker{X: 30, Y: 48}, B: Marker{X: 66, Y: 48}, Spacing: 36}
	cc := &Couple{A: Marker{X: 31.5, Y: 47}, B: Marker{X: 67.5, Y: 47}, Spacing: 36}
	reg.Run(f, f, pc, cc) // builds the tap tables and the patch rows
	if avg := testing.AllocsPerRun(50, func() { reg.Run(f, f, pc, cc) }); avg != 0 {
		t.Fatalf("Registrator.Run: %.1f allocs/op in steady state, want 0", avg)
	}
}

// TestRidgeOverlapMatchesPerPixelAt: the row-sliced count is the At per
// pixel it replaced, also where the ridge mask does not cover the source grid
// (At reads 0 there).
func TestRidgeOverlapMatchesPerPixelAt(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	random := func(w, h int) *frame.Frame {
		f := frame.New(w, h)
		for i := range f.Pix {
			f.Pix[i] = uint16(rng.Intn(2))
		}
		return f
	}
	mkx := NewMarkerExtractor(params())
	src := frame.R(7, 5, 47, 37) // a 20x16 half-resolution grid
	mask := random(20, 16)
	full := random(60, 50)
	for ri, ridge := range []*frame.Frame{
		full.SubFrame(src), full, full.SubFrame(frame.R(20, 12, 40, 30)), full.SubFrame(frame.R(50, 40, 60, 50)),
	} {
		for i := 0; i < 50; i++ {
			x0, y0 := rng.Intn(20), rng.Intn(16)
			c := frame.Component{BBox: frame.R(x0, y0, x0+1+rng.Intn(20-x0), y0+1+rng.Intn(16-y0))}
			dark, onRidge := 0, 0
			for y := c.BBox.Y0; y < c.BBox.Y1; y++ {
				for x := c.BBox.X0; x < c.BBox.X1; x++ {
					if mask.At(x, y) == 0 {
						continue
					}
					dark++
					if ridge.At(src.X0+x*2, src.Y0+y*2) != 0 {
						onRidge++
					}
				}
			}
			want := 0.0
			if dark > 0 {
				want = float64(onRidge) / float64(dark)
			}
			if got := mkx.ridgeOverlap(c, mask, ridge, src); got != want {
				t.Fatalf("ridge mask %d (%v) box %v: overlap %v, want %v", ri, ridge.Bounds, c.BBox, got, want)
			}
		}
	}
}

// TestDetectorsSteadyStateAllocs pins switch 1 and the ridge filter: DETECT
// borrows its downsampled image and tap tables from pools, and RDG takes its
// blurred-row ring from the frame package's pooled scratch and reuses its
// result, so neither allocates, RDG inline or striped over host stripes.
func TestDetectorsSteadyStateAllocs(t *testing.T) {
	f, _ := cleanSeq(t, 5).Frame(20)
	det := NewStructureDetector(params())
	det.Run(f)
	if avg := testing.AllocsPerRun(50, func() { det.Run(f) }); avg > racePoolMallocs {
		t.Errorf("StructureDetector.Run: %.2f allocs/op in steady state, want <= %d", avg, racePoolMallocs)
	}
	rdg := NewRidgeDetector(params())
	roi := f.SubFrame(frame.R(17, 9, 90, 71))
	for _, k := range []int{1, 2} {
		rdg.Stripes = parallel.NewHostStripes(k)
		for _, in := range []*frame.Frame{f, roi} {
			run := func() {
				res, _ := rdg.Run(in)
				frame.Release(res.Mask)
			}
			run()
			if avg := testing.AllocsPerRun(50, run); avg > racePoolMallocs {
				t.Errorf("RidgeDetector.Run %v, %d stripes: %.2f allocs/op in steady state, want <= %d", in.Bounds, k, avg, racePoolMallocs)
			}
		}
		rdg.Stripes.Close()
	}
}
