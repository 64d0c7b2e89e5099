// Package synth generates deterministic synthetic X-ray angiography
// sequences that stand in for the paper's 37 clinical sequences (1,921
// frames), which are not publicly available.
//
// The generator reproduces the three sources of dynamism the paper's Section
// 3 identifies:
//
//  1. a Region Of Interest of variable, data-dependent size (the marker
//     couple drifts and its surrounding ROI breathes with it),
//  2. switch decisions driven by image content (contrast-injection bursts
//     make vessel structures dominant, which activates the ridge-detection
//     pre-filter; marker visibility controls registration success),
//  3. intrinsically variable processing time (the number of candidate dark
//     blobs and the density of ridge pixels fluctuate frame to frame with
//     both a slow drift and short-term noise).
//
// Every frame carries Truth metadata (marker positions, contrast state,
// expected ROI) so tests can validate the image-analysis tasks against
// ground truth.
package synth

import (
	"fmt"
	"math"

	"triplec/internal/frame"
	"triplec/internal/stats"
)

// Config parameterizes a synthetic sequence. The zero value is unusable;
// start from DefaultConfig.
type Config struct {
	Width, Height int     // frame dimensions in pixels
	Seed          uint64  // RNG seed; sequences with equal configs are identical
	MarkerSpacing float64 // a-priori known distance between the markers (px)
	NoiseSigma    float64 // Gaussian electronic-noise sigma
	QuantumGain   float64 // Poisson quantum-noise gain (0 disables)
	ContrastEvery int     // frames between contrast-injection bursts (0 disables)
	ContrastLen   int     // burst duration in frames
	ClutterRate   float64 // mean count of spurious dark blobs per frame
	DropoutEvery  int     // every n-th frame the markers fade (registration fails); 0 disables
	// VesselModAmp/VesselModPeriod modulate the vessel depth slowly over
	// time (1 + amp*sin(2*pi*t/period)), producing the long-term structural
	// fluctuations in task load that the paper's EWMA filter tracks
	// (Fig. 3). Amp 0 disables the modulation.
	VesselModAmp    float64
	VesselModPeriod float64
}

// The scene every sequence draws: its intensities, anatomy and motion.
const (
	background    = 30000 // mean background intensity (16-bit scale)
	vesselCount   = 6     // number of vessel branches
	vesselDepth   = 9000  // how much darker vessels are than background
	markerDepth   = 16000 // how much darker balloon markers are
	markerRadius  = 3.0   // marker blob radius in pixels
	wireDepth     = 5000  // guide-wire darkness
	cardiacPeriod = 20    // frames per cardiac cycle
	breathPeriod  = 90    // frames per breathing cycle
	cardiacAmp    = 6     // marker excursion per cardiac cycle (px)
	breathAmp     = 4     // background excursion per breathing cycle (px)
)

// DefaultConfig returns a configuration producing a 256x256 sequence with
// all dynamics enabled. Tests use smaller frames; the bandwidth arithmetic
// that needs the paper's 1024x1024 geometry is analytical and does not
// depend on the synthesized pixel count.
func DefaultConfig(seed uint64) Config {
	return Config{
		Width: 256, Height: 256,
		Seed:            seed,
		MarkerSpacing:   40,
		NoiseSigma:      600,
		QuantumGain:     0.02,
		ContrastEvery:   50,
		ContrastLen:     15,
		ClutterRate:     4,
		DropoutEvery:    37,
		VesselModAmp:    0.10,
		VesselModPeriod: 160,
	}
}

// Truth is the per-frame ground truth.
type Truth struct {
	Index          int        // frame index
	MarkerA        [2]float64 // marker A center (x, y)
	MarkerB        [2]float64 // marker B center (x, y)
	Spacing        float64    // actual distance between the markers
	ContrastActive bool       // contrast burst in progress (dominant structures)
	MarkersVisible bool       // false on dropout frames
	ROI            frame.Rect // tight ROI around the couple, padded
	ClutterBlobs   int        // number of spurious dark blobs injected
}

// Sequence is a deterministic frame source. Frame(i) may be called in any
// order and concurrently; every call derives its noise stream from the
// frame index alone.
type Sequence struct {
	cfg        Config
	vessels    []segment // static vessel centerline segments
	background []uint16  // the illumination every frame starts from; read-only
}

type segment struct {
	x0, y0, x1, y1 float64
	width          float64
}

// New validates cfg and builds a sequence.
func New(cfg Config) (*Sequence, error) {
	if cfg.Width <= 0 || cfg.Height <= 0 {
		return nil, fmt.Errorf("synth: invalid dimensions %dx%d", cfg.Width, cfg.Height)
	}
	if cfg.MarkerSpacing <= 0 {
		return nil, fmt.Errorf("synth: marker spacing must be positive")
	}
	s := &Sequence{cfg: cfg}
	s.buildVessels()
	s.buildBackground()
	return s, nil
}

// Config returns the sequence configuration.
func (s *Sequence) Config() Config { return s.cfg }

// buildVessels lays out the static vessel tree as random-walk polylines.
func (s *Sequence) buildVessels() {
	rng := stats.NewRNG(s.cfg.Seed*0x9E37 + 0xE5)
	w, h := float64(s.cfg.Width), float64(s.cfg.Height)
	for v := 0; v < vesselCount; v++ {
		// Each branch starts on a random edge and meanders across the frame.
		x := rng.Range(0, w)
		y := 0.0
		if rng.Float64() < 0.5 {
			x, y = 0, rng.Range(0, h)
		}
		angle := rng.Range(0.2, math.Pi/2-0.2)
		width := rng.Range(1.5, 4.0)
		steps := 10 + rng.Intn(15)
		stepLen := math.Hypot(w, h) / float64(steps)
		for i := 0; i < steps; i++ {
			nx := x + stepLen*math.Cos(angle)
			ny := y + stepLen*math.Sin(angle)
			s.vessels = append(s.vessels, segment{x, y, nx, ny, width})
			x, y = nx, ny
			angle += rng.Range(-0.35, 0.35)
			if x < -w/4 || x > 1.25*w || y < -h/4 || y > 1.25*h {
				break
			}
		}
	}
}

// buildBackground renders the smooth illumination falloff toward the
// borders, which no frame parameter moves.
func (s *Sequence) buildBackground() {
	w, h := float64(s.cfg.Width), float64(s.cfg.Height)
	s.background = make([]uint16, s.cfg.Width*s.cfg.Height)
	for y := 0; y < s.cfg.Height; y++ {
		fy := (float64(y)/h - 0.5) * 2
		row := s.background[y*s.cfg.Width : (y+1)*s.cfg.Width]
		for x := range row {
			fx := (float64(x)/w - 0.5) * 2
			vignette := 1 - 0.15*(fx*fx+fy*fy)
			row[x] = clamp16(background * vignette)
		}
	}
}

// markerPath returns the marker-couple midpoint and orientation at frame i:
// a slow drift across the frame plus cardiac oscillation.
func (s *Sequence) markerPath(i int) (cx, cy, theta float64) {
	w, h := float64(s.cfg.Width), float64(s.cfg.Height)
	t := float64(i)
	// Slow Lissajous drift keeps the couple inside the central region.
	cx = w/2 + 0.25*w*math.Sin(2*math.Pi*t/(7.3*breathPeriod))
	cy = h/2 + 0.25*h*math.Sin(2*math.Pi*t/(9.1*breathPeriod)+1.0)
	// Cardiac motion moves the couple along its wire axis.
	cardiac := cardiacAmp * math.Sin(2*math.Pi*t/cardiacPeriod)
	theta = 0.6 + 0.4*math.Sin(2*math.Pi*t/(5*breathPeriod))
	cx += cardiac * math.Cos(theta)
	cy += cardiac * math.Sin(theta)
	return cx, cy, theta
}

// breathOffset returns the background translation at frame i.
func (s *Sequence) breathOffset(i int) (dx, dy float64) {
	t := float64(i)
	dx = breathAmp * math.Sin(2*math.Pi*t/breathPeriod)
	dy = 0.5 * breathAmp * math.Cos(2*math.Pi*t/breathPeriod)
	return dx, dy
}

// contrastActive reports whether frame i falls inside a contrast burst.
func (s *Sequence) contrastActive(i int) bool {
	if s.cfg.ContrastEvery <= 0 || s.cfg.ContrastLen <= 0 {
		return false
	}
	return i%s.cfg.ContrastEvery < s.cfg.ContrastLen
}

// markersVisible reports whether the markers are visible at frame i.
func (s *Sequence) markersVisible(i int) bool {
	if s.cfg.DropoutEvery <= 0 {
		return true
	}
	return i%s.cfg.DropoutEvery != s.cfg.DropoutEvery-1
}

// Truth returns the ground truth of frame i without rendering pixels.
func (s *Sequence) Truth(i int) Truth {
	cx, cy, theta := s.markerPath(i)
	half := s.cfg.MarkerSpacing / 2
	ax := cx - half*math.Cos(theta)
	ay := cy - half*math.Sin(theta)
	bx := cx + half*math.Cos(theta)
	by := cy + half*math.Sin(theta)
	rng := s.frameRNG(i)
	clutter := rng.Poisson(s.cfg.ClutterRate)
	tr := Truth{
		Index:          i,
		MarkerA:        [2]float64{ax, ay},
		MarkerB:        [2]float64{bx, by},
		Spacing:        math.Hypot(bx-ax, by-ay),
		ContrastActive: s.contrastActive(i),
		MarkersVisible: s.markersVisible(i),
		ClutterBlobs:   clutter,
	}
	pad := int(4 * markerRadius)
	roi := frame.R(
		int(math.Min(ax, bx))-pad, int(math.Min(ay, by))-pad,
		int(math.Max(ax, bx))+pad+1, int(math.Max(ay, by))+pad+1,
	)
	tr.ROI = roi.Intersect(frame.R(0, 0, s.cfg.Width, s.cfg.Height))
	return tr
}

// frameRNG derives the per-frame deterministic noise stream.
func (s *Sequence) frameRNG(i int) *stats.RNG {
	return stats.NewRNG(s.cfg.Seed ^ (uint64(i)*0x9E3779B97F4A7C15 + 0xD1B54A32D192ED03))
}

// Frame renders frame i and returns it with its ground truth.
func (s *Sequence) Frame(i int) (*frame.Frame, Truth) {
	tr := s.Truth(i)
	rng := s.frameRNG(i)
	f := frame.New(s.cfg.Width, s.cfg.Height)
	copy(f.Pix, s.background)
	bdx, bdy := s.breathOffset(i)

	// Vessels: dark anti-aliased strokes, translated by breathing motion and
	// deepened during contrast bursts. A slow sinusoidal
	// modulation of the depth adds the long-term load fluctuation the EWMA
	// models.
	depth := vesselDepth * 0.35
	if tr.ContrastActive {
		depth = vesselDepth
	}
	if s.cfg.VesselModAmp != 0 && s.cfg.VesselModPeriod > 0 {
		depth *= 1 + s.cfg.VesselModAmp*math.Sin(2*math.Pi*float64(i)/s.cfg.VesselModPeriod)
	}
	for _, seg := range s.vessels {
		s.stroke(f, seg.x0+bdx, seg.y0+bdy, seg.x1+bdx, seg.y1+bdy, seg.width, depth)
	}

	// Guide wire: a thin dark line through the marker couple, slightly
	// extended beyond both ends.
	if tr.MarkersVisible {
		ext := s.cfg.MarkerSpacing * 0.35
		dx := tr.MarkerB[0] - tr.MarkerA[0]
		dy := tr.MarkerB[1] - tr.MarkerA[1]
		n := math.Hypot(dx, dy)
		if n > 0 {
			ux, uy := dx/n, dy/n
			s.stroke(f,
				tr.MarkerA[0]-ux*ext, tr.MarkerA[1]-uy*ext,
				tr.MarkerB[0]+ux*ext, tr.MarkerB[1]+uy*ext,
				1.2, wireDepth)
		}
		// Balloon markers: punctual dark Gaussian blobs.
		s.blob(f, tr.MarkerA[0], tr.MarkerA[1], markerRadius, markerDepth)
		s.blob(f, tr.MarkerB[0], tr.MarkerB[1], markerRadius, markerDepth)
	}

	// Clutter: spurious dark blobs that become candidate markers and inflate
	// the couples-selection workload (O(k^2) in candidate count).
	w, h := float64(s.cfg.Width), float64(s.cfg.Height)
	for c := 0; c < tr.ClutterBlobs; c++ {
		x := rng.Range(0, w)
		y := rng.Range(0, h)
		r := rng.Range(1.5, 3.5)
		d := rng.Range(0.4, 0.9) * markerDepth
		s.blob(f, x, y, r, d)
	}

	// Noise: Poisson quantum noise plus Gaussian electronic noise.
	switch {
	case s.cfg.QuantumGain > 0:
		for idx, v := range f.Pix {
			lambda := float64(v) * s.cfg.QuantumGain
			val := float64(rng.Poisson(lambda)) / s.cfg.QuantumGain
			if s.cfg.NoiseSigma > 0 {
				val += rng.Norm(0, s.cfg.NoiseSigma)
			}
			f.Pix[idx] = clamp16(val)
		}
	case s.cfg.NoiseSigma > 0:
		gaussNoise(f.Pix, rng, s.cfg.NoiseSigma)
	}
	return f, tr
}

// stroke darkens pixels within width of the segment (x0,y0)-(x1,y1) by
// depth, with a soft falloff at the edge.
func (s *Sequence) stroke(f *frame.Frame, x0, y0, x1, y1, width, depth float64) {
	minX := int(math.Floor(math.Min(x0, x1) - width - 1))
	maxX := int(math.Ceil(math.Max(x0, x1) + width + 1))
	minY := int(math.Floor(math.Min(y0, y1) - width - 1))
	maxY := int(math.Ceil(math.Max(y0, y1) + width + 1))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= s.cfg.Width {
		maxX = s.cfg.Width - 1
	}
	if maxY >= s.cfg.Height {
		maxY = s.cfg.Height - 1
	}
	dx, dy := x1-x0, y1-y0
	lenSq := dx*dx + dy*dy
	inv := 0.0
	if lenSq > 0 {
		inv = 1 / lenSq
	}
	// The prefilter's t, from the reciprocal, is within a few ulps of the
	// exact one, so a pixel farther than width plus a 1e-3 px margin by it
	// is farther than width by the exact distance too.
	reach := (width + 1e-3) * (width + 1e-3)
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x), float64(y)
			ta := min(max(((px-x0)*dx+(py-y0)*dy)*inv, 0), 1)
			if ex, ey := px-(x0+ta*dx), py-(y0+ta*dy); ex*ex+ey*ey > reach {
				continue
			}
			// Distance from pixel to segment.
			t := 0.0
			if lenSq > 0 {
				t = ((px-x0)*dx + (py-y0)*dy) / lenSq
				if t < 0 {
					t = 0
				} else if t > 1 {
					t = 1
				}
			}
			qx, qy := x0+t*dx, y0+t*dy
			dist := math.Hypot(px-qx, py-qy)
			if dist > width {
				continue
			}
			fall := 1 - dist/width
			v := float64(f.Pix[y*f.Stride+x]) - depth*fall
			f.Pix[y*f.Stride+x] = clamp16(v)
		}
	}
}

// blob darkens a Gaussian spot of the given radius centered at (cx, cy).
func (s *Sequence) blob(f *frame.Frame, cx, cy, radius, depth float64) {
	r3 := 3 * radius
	minX := int(math.Floor(cx - r3))
	maxX := int(math.Ceil(cx + r3))
	minY := int(math.Floor(cy - r3))
	maxY := int(math.Ceil(cy + r3))
	if minX < 0 {
		minX = 0
	}
	if minY < 0 {
		minY = 0
	}
	if maxX >= s.cfg.Width {
		maxX = s.cfg.Width - 1
	}
	if maxY >= s.cfg.Height {
		maxY = s.cfg.Height - 1
	}
	inv := 1 / (2 * radius * radius)
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			d2 := (float64(x)-cx)*(float64(x)-cx) + (float64(y)-cy)*(float64(y)-cy)
			fall := math.Exp(-d2 * inv)
			v := float64(f.Pix[y*f.Stride+x]) - depth*fall
			f.Pix[y*f.Stride+x] = clamp16(v)
		}
	}
}

func clamp16(v float64) uint16 {
	if v <= 0 {
		return 0
	}
	if v >= 65535 {
		return 65535
	}
	return uint16(v + 0.5)
}
