// Package tasks implements the nine image-processing tasks of the paper's
// motion-compensated feature-enhancement application (Fig. 2): ridge
// detection (RDG FULL / RDG ROI), marker extraction (MKX EXT), couples
// selection (CPLS SEL), temporal registration (REG), ROI estimation
// (ROI EST), guide-wire extraction (GW EXT), enhancement (ENH) and zoom
// (ZOOM), plus the cheap structure detector driving the first switch.
//
// Every task does genuine pixel work and reports the work it performed as a
// platform.Cost in CPU cycles. The cycle accounting is calibrated (see
// DefaultCostParams) so that at the paper's 1024x1024 geometry on the
// Blackford machine model the constant tasks land on the paper's Table 2(b)
// values (MKX 2.5 ms, REG 2 ms, ROI EST 1 ms, ENH 24 ms, ZOOM 12.5 ms) and
// RDG FULL falls in Fig. 3's 35-55 ms band. Because synthetic test frames
// are smaller than 1024x1024, PixelScale linearly extrapolates pixel-
// proportional work to the full clinical geometry; data-dependent structure
// (ridge density, candidate counts) is preserved by the scaling.
package tasks

import "triplec/internal/platform"

// CostParams scales the task cost model to the processed frame size.
type CostParams struct {
	// PixelScale multiplies every pixel count before cycle conversion,
	// emulating the paper's full 1024x1024 geometry when processing smaller
	// synthetic frames. 1.0 means "count pixels as processed".
	PixelScale float64
}

// The cycles-per-unit constants of the task cost model, calibrated against
// Table 2(b) at the 1024x1024 geometry.
const (
	// RDG FULL at 1024^2: (blur 40 + hessian 45)c/px * 1 Mpx = 89e6
	// cycles = 38 ms, plus the data-dependent NMS share on top: matches
	// Fig. 3's 35-55 ms band.
	blurPerPixel     float64 = 40  // separable Gaussian, two passes
	hessianPerPixel  float64 = 45  // second derivatives + eigenvalues
	nmsPerRidgePixel float64 = 220 // data-dependent ridge aftermath (thinning/linking)

	// MKX EXT ~2.5 ms = 5.8e6 cycles. It runs on a 2x-downsampled
	// candidate map (0.25 Mpx): ~16 c/px + component scoring.
	thresholdPerPixel float64 = 6     // thresholding / inversion sweeps
	ccPerPixel        float64 = 12    // connected-component labeling sweep
	scorePerComponent float64 = 45000 // per-candidate feature scoring

	// CPLS SEL: dominated by k^2 pair evaluations.
	pairPerCouple float64 = 90000 // per marker-pair evaluation

	// REG ~2 ms = 4.65e6 cycles over two 64x64 patches and couple
	// bookkeeping: ~550 c/px on 8192 px.
	regPerPixel float64 = 550 // per-pixel patch correlation

	// GW EXT: per-sample ridge evidence along the wire track.
	samplePerPoint float64 = 26000

	// ENH 24 ms = 55.8e6 cycles at 1 Mpx -> ~53 c/px: temporal-integration
	// accumulate + average.
	accumPerPixel float64 = 53

	// ZOOM 12.5 ms = 29.1e6 cycles at 1 Mpx output -> ~28 c/px: bilinear
	// resampling per output pixel.
	zoomPerPixel float64 = 28

	detectPerPixel float64 = 4     // structure-detector gradient sweep (downsampled)
	baselineCycles float64 = 50000 // fixed control overhead per task activation
)

// DefaultCostParams returns the cost model for a frame size of
// `framePixels` actually processed: PixelScale is (1024*1024)/framePixels.
func DefaultCostParams(framePixels int) CostParams {
	scale := 1.0
	if framePixels > 0 {
		scale = float64(1024*1024) / float64(framePixels)
	}
	return CostParams{PixelScale: scale}
}

// pixCost converts a pixel count into cycles under the scale factor.
func (p CostParams) pixCost(pixels int, perPixel float64) float64 {
	return float64(pixels) * p.PixelScale * perPixel
}

// cost wraps cycles into a platform.Cost with the baseline overhead added.
func (p CostParams) cost(cycles float64) platform.Cost {
	return platform.Cost{Cycles: cycles + baselineCycles}
}
