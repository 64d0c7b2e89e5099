package synth

import (
	"math"

	"triplec/internal/frame"
)

// oracleFrame is Frame as it was before the fast noise path, the
// precomputed background and the stroke prefilter: one rng.Norm per pixel,
// the vignette evaluated per frame and every stroke pixel through Hypot.
// Frame must render exactly its bits.
func oracleFrame(s *Sequence, i int) (*frame.Frame, Truth) {
	tr := s.Truth(i)
	rng := s.frameRNG(i)
	f := frame.New(s.cfg.Width, s.cfg.Height)
	bdx, bdy := s.breathOffset(i)

	// Background: smooth illumination falloff toward the borders.
	w, h := float64(s.cfg.Width), float64(s.cfg.Height)
	for y := 0; y < s.cfg.Height; y++ {
		fy := (float64(y)/h - 0.5) * 2
		row := f.Pix[y*f.Stride : y*f.Stride+s.cfg.Width]
		for x := 0; x < s.cfg.Width; x++ {
			fx := (float64(x)/w - 0.5) * 2
			vignette := 1 - 0.15*(fx*fx+fy*fy)
			row[x] = clamp16(background * vignette)
		}
	}

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
		oracleStroke(s, f, seg.x0+bdx, seg.y0+bdy, seg.x1+bdx, seg.y1+bdy, seg.width, depth)
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
			oracleStroke(s, f,
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
	for c := 0; c < tr.ClutterBlobs; c++ {
		x := rng.Range(0, w)
		y := rng.Range(0, h)
		r := rng.Range(1.5, 3.5)
		d := rng.Range(0.4, 0.9) * markerDepth
		s.blob(f, x, y, r, d)
	}

	// Noise: Poisson quantum noise plus Gaussian electronic noise.
	if s.cfg.NoiseSigma > 0 || s.cfg.QuantumGain > 0 {
		for idx, v := range f.Pix {
			val := float64(v)
			if s.cfg.QuantumGain > 0 {
				lambda := val * s.cfg.QuantumGain
				val = float64(rng.Poisson(lambda)) / s.cfg.QuantumGain
			}
			if s.cfg.NoiseSigma > 0 {
				val += rng.Norm(0, s.cfg.NoiseSigma)
			}
			f.Pix[idx] = clamp16(val)
		}
	}
	return f, tr
}

// oracleStroke is stroke without the squared-distance prefilter.
func oracleStroke(s *Sequence, f *frame.Frame, x0, y0, x1, y1, width, depth float64) {
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
	for y := minY; y <= maxY; y++ {
		for x := minX; x <= maxX; x++ {
			px, py := float64(x), float64(y)
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
