package tasks

import (
	"math"

	"triplec/internal/frame"
	"triplec/internal/platform"
)

// GuideWireExtractor implements GW EXT: detect the guide wire with a ridge
// filter along the track joining the marker couple. If the markers sit on a
// ridge joining them, the automatic marker extraction is considered stable
// (paper Section 3).
type GuideWireExtractor struct {
	// EvidenceSigmas: a sample shows ridge evidence when it is at least this
	// many standard deviations darker than its flanking samples.
	EvidenceSigmas float64
	// ProbeHalfWidth is the lateral probe distance in pixels.
	ProbeHalfWidth float64

	Params CostParams
}

// NewGuideWireExtractor returns an extractor tuned for the synthetic wires.
func NewGuideWireExtractor(p CostParams) *GuideWireExtractor {
	return &GuideWireExtractor{
		EvidenceSigmas: 1.0,
		ProbeHalfWidth: 3,
		Params:         p,
	}
}

// Run probes the track between the couple's markers in f and returns the
// share of track samples with ridge evidence. The number of samples (and
// therefore the cost) grows with the couple spacing — the data-dependent
// behaviour modeled by the GW Markov chain.
func (g *GuideWireExtractor) Run(f *frame.Frame, couple *Couple) (float64, platform.Cost) {
	if couple == nil || f == nil || f.Pixels() == 0 {
		return 0, g.Params.cost(0)
	}
	dx := couple.B.X - couple.A.X
	dy := couple.B.Y - couple.A.Y
	length := math.Hypot(dx, dy)
	if length < 2 {
		return 0, g.Params.cost(0)
	}
	ux, uy := dx/length, dy/length
	// Lateral (normal) direction for the flanking probes.
	nx, ny := -uy, ux

	samples := int(length) + 1
	evidence := 0
	// Skip the immediate marker neighborhoods: the dark blobs would count
	// as trivial evidence.
	margin := int(0.12 * length)
	examined := 0
	for s := 0; s < samples; s++ {
		if s < margin || s >= samples-margin {
			continue
		}
		t := float64(s)
		pxX := couple.A.X + t*ux
		pxY := couple.A.Y + t*uy
		on := frame.BilinearAt(f, pxX, pxY)
		left := frame.BilinearAt(f, pxX+nx*g.ProbeHalfWidth, pxY+ny*g.ProbeHalfWidth)
		right := frame.BilinearAt(f, pxX-nx*g.ProbeHalfWidth, pxY-ny*g.ProbeHalfWidth)
		flank := (left + right) / 2
		// Local contrast scale: use a fraction of the flank level as the
		// noise proxy; a wire must be measurably darker than its flanks.
		if flank-on >= g.EvidenceSigmas*0.02*flank {
			evidence++
		}
		examined++
	}
	coverage := 0.0
	if examined > 0 {
		coverage = float64(evidence) / float64(examined)
	}
	cycles := float64(examined) * samplePerPoint
	return coverage, g.Params.cost(cycles)
}
