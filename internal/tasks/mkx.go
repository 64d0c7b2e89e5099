package tasks

import (
	"math"
	"sort"

	"triplec/internal/frame"
	"triplec/internal/platform"
)

// MarkerExtractor implements MKX EXT: select punctual dark zones contrasting
// on a brighter background as candidate balloon markers. When a ridge mask
// is supplied (RDG selected), pixels belonging to elongated structures are
// excluded so vessels and wires do not produce candidates.
type MarkerExtractor struct {
	// DarkSigmas: a pixel is "dark" when it lies this many standard
	// deviations below the local mean.
	DarkSigmas float64
	// MinBlob / MaxBlob bound the candidate blob size in pixels (on the
	// half-resolution grid the extractor works on).
	MinBlob, MaxBlob int
	// MinCompact rejects non-punctual (elongated) blobs.
	MinCompact float64
	// MaxCandidates caps the returned list, keeping the best-scoring ones.
	MaxCandidates int
	// UseOtsu switches the darkness threshold from the mean-minus-k-sigma
	// statistic to Otsu's histogram-based threshold, which adapts better to
	// strongly bimodal contrast-burst frames. When Otsu fails (flat frame),
	// the extractor falls back to the sigma rule.
	UseOtsu bool

	Params CostParams

	// The component, flood-fill and candidate buffers, reused across Runs.
	comps []frame.Component
	stack [][2]int
	cands byScore
}

// byScore orders candidates best score first. The methods take a pointer, so
// passing &m.cands to sort.Sort boxes nothing.
type byScore []Marker

func (c *byScore) Len() int           { return len(*c) }
func (c *byScore) Less(i, j int) bool { return (*c)[i].Score > (*c)[j].Score }
func (c *byScore) Swap(i, j int)      { (*c)[i], (*c)[j] = (*c)[j], (*c)[i] }

// NewMarkerExtractor returns an extractor tuned for the synthetic markers.
func NewMarkerExtractor(p CostParams) *MarkerExtractor {
	return &MarkerExtractor{
		DarkSigmas:    2.2,
		MinBlob:       2,
		MaxBlob:       400,
		MinCompact:    0.30,
		MaxCandidates: 12,
		Params:        p,
	}
}

// Run extracts candidate markers from in. ridge may be nil (RDG switched
// off). The returned cost covers the threshold sweep, the labeling pass and
// the per-component scoring — the last part is the data-dependent load. The
// returned slice is the extractor's own: it stays valid until the next Run.
func (m *MarkerExtractor) Run(in *frame.Frame, ridge *RidgeResult) ([]Marker, platform.Cost) {
	pixels := in.Pixels()
	if pixels == 0 {
		return nil, m.Params.cost(0)
	}
	// Work at half resolution: MKX's Table 1 footprint is a fraction of the
	// frame, and markers remain well resolved.
	w, h := in.Width()/2, in.Height()/2
	if w < 4 || h < 4 {
		return nil, m.Params.cost(0)
	}
	small := frame.ResizeInto(frame.BorrowUninit(w, h), in, w, h)
	defer frame.Release(small)

	// Adaptive darkness threshold from global statistics.
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
			// Otsu separates dark structures from background; markers are
			// the dark class, so the threshold applies directly.
			thr = float64(otsu)
			// Guard against degenerate splits far above the sigma rule on
			// nearly unimodal frames.
			if thr > mean {
				thr = mean - m.DarkSigmas*std
			}
		}
	}
	if thr < 0 {
		thr = 0
	}

	// Dark mask over the half-resolution grid, 1 where float64(v) < thr,
	// every pixel written. For an integer v that is v < ⌈thr⌉, a sign bit
	// in uint32: the difference of two values below 2^17 reaches bit 31 only
	// when it wraps. A NaN threshold marks nothing, like float64(v) < NaN.
	lim := uint32(0)
	if c := math.Ceil(thr); c > 65536 {
		lim = 65536
	} else if c > 0 {
		lim = uint32(c)
	}
	mask := frame.BorrowUninit(w, h)
	defer frame.Release(mask)
	for y := 0; y < h; y++ {
		srow := small.Row(y)
		mrow := mask.Row(y)[:len(srow)]
		for x, v := range srow {
			mrow[x] = uint16((uint32(v) - lim) >> 31)
		}
	}

	m.comps, m.stack = frame.LabelComponents(m.comps[:0], m.stack, mask, small, m.MinBlob)
	comps, cands := m.comps, m.cands[:0]
	for _, c := range comps {
		if c.Size > m.MaxBlob || c.Compact < m.MinCompact {
			continue
		}
		// Ridge suppression at component level: a candidate is discarded
		// when most of its dark pixels lie on detected elongated structures
		// (vessel or wire fragments). Punctual markers sitting ON the guide
		// wire survive because the blob body itself is not ridge-like.
		if ridge != nil && ridge.Mask != nil &&
			m.ridgeOverlap(c, mask, ridge.Mask, in.Bounds) > 0.5 {
			continue
		}
		darkness := (mean - c.MeanVal) / (std + 1)
		if darkness <= 0 {
			continue
		}
		cands = append(cands, Marker{
			// Map centroid back to source-frame coordinates.
			X:     float64(in.Bounds.X0) + c.CX*2 + 0.5,
			Y:     float64(in.Bounds.Y0) + c.CY*2 + 0.5,
			Score: darkness * c.Compact,
		})
	}
	m.cands = cands
	sort.Sort(&m.cands)
	if len(cands) > m.MaxCandidates {
		cands = cands[:m.MaxCandidates]
	}

	cycles := m.Params.pixCost(w*h, thresholdPerPixel) +
		m.Params.pixCost(w*h, ccPerPixel) +
		float64(len(comps))*scorePerComponent
	return []Marker(cands), m.Params.cost(cycles)
}

// ridgeOverlap returns the fraction of a component's dark pixels (sampled
// over its half-resolution bounding box) that map onto ridge-mask pixels in
// the source grid.
func (m *MarkerExtractor) ridgeOverlap(c frame.Component, mask, ridgeMask *frame.Frame, srcBounds frame.Rect) float64 {
	dark, onRidge := 0, 0
	for y := c.BBox.Y0; y < c.BBox.Y1; y++ {
		// Source row 2y of the ridge mask; outside it nothing is on a ridge.
		rrow := ridgeMask.Row(srcBounds.Y0 + y*2)
		rx0 := srcBounds.X0 - ridgeMask.Bounds.X0
		for x, m := range mask.Row(y)[c.BBox.X0:c.BBox.X1] {
			if m == 0 {
				continue
			}
			dark++
			if i := rx0 + (c.BBox.X0+x)*2; uint(i) < uint(len(rrow)) && rrow[i] != 0 {
				onRidge++
			}
		}
	}
	if dark == 0 {
		return 0
	}
	return float64(onRidge) / float64(dark)
}
