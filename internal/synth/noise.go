package synth

import (
	"math"

	"triplec/internal/stats"
)

// The Gaussian electronic noise is one Box-Muller draw per pixel, and the
// exact transform's math.Log and math.Cos were three quarters of a frame's
// render time. gaussNoise evaluates z with polynomials instead and keeps the
// result only where it provably rounds to the exact transform's pixel: when
// v + σz lies more than noiseGuard from every clamp16 rounding boundary and
// from its clamps, an error of σ·approxZErr ≪ noiseGuard cannot move the
// pixel. Elsewhere (≈ 3e-5 of pixels) it recomputes z exactly.
const (
	noiseGuard = 1.0 / (1 << 16)
	approxZErr = 1e-12 // bound on |approxZ - stats.BoxMuller|, checked by TestGaussianApproxError
)

// lnCoef are 1/(2k+1): ln m = 2s·Σ lnCoef[k]·s^2k with s = (m-1)/(m+1), the
// atanh series, whose first omitted term is < 4e-14·|ln m| for m in [√½, √2)
// (s² ≤ 0.0295). cosCoef and sinCoef are the Taylor coefficients of cos θ
// and sin θ / θ in θ², whose first omitted terms are < 1e-15 for |θ| ≤ π/4.
var (
	lnCoef  = [8]float64{1, 1.0 / 3, 1.0 / 5, 1.0 / 7, 1.0 / 9, 1.0 / 11, 1.0 / 13, 1.0 / 15}
	cosCoef = [8]float64{1, -1.0 / 2, 1.0 / 24, -1.0 / 720, 1.0 / 40320, -1.0 / 3628800, 1.0 / 479001600, -1.0 / 87178291200}
	sinCoef = [8]float64{1, -1.0 / 6, 1.0 / 120, -1.0 / 5040, 1.0 / 362880, -1.0 / 39916800, 1.0 / 6227020800, -1.0 / 1307674368000}
)

// quadCos and quadSin are cos(qπ/2) and -sin(qπ/2) for quadrant q: with
// 2πu = qπ/2 + θ, cos 2πu = quadCos[q]·cos θ + quadSin[q]·sin θ.
var (
	quadCos = [4]float64{1, 0, -1, 0}
	quadSin = [4]float64{0, -1, 0, 1}
)

// poly evaluates Σ c[k]·x^k by Estrin's scheme, whose dependency chain is
// half as long as Horner's.
func poly(x float64, c *[8]float64) float64 {
	x2 := x * x
	return (c[0] + c[1]*x) + x2*(c[2]+c[3]*x) + x2*x2*((c[4]+c[5]*x)+x2*(c[6]+c[7]*x))
}

// approxZ is stats.BoxMuller(u1, u2) to within approxZErr, for u1 in
// [1e-12, 1) and u2 in [0, 1), without a branch.
func approxZ(u1, u2 float64) float64 {
	// u1 = m·2^e with m in [√½, √2): offsetting the bits by 1 - √½ carries a
	// mantissa past √2 into the exponent.
	ix := math.Float64bits(u1) + (0x3ff0000000000000 - 0x3fe6a09e667f3bcd)
	e := float64(int64(ix>>52) - 0x3ff)
	m := math.Float64frombits(ix&(1<<52-1) + 0x3fe6a09e667f3bcd)
	s := (m - 1) / (m + 1)
	ln := e*math.Ln2 + 2*s*poly(s*s, &lnCoef)

	// 4u2 = q + r with r in [-½, ½], so θ = rπ/2 lies in [-π/4, π/4].
	q := int(4*u2 + 0.5)
	th := (4*u2 - float64(q)) * (math.Pi / 2)
	t2 := th * th
	return math.Sqrt(-2*ln) * (quadCos[q&3]*poly(t2, &cosCoef) + quadSin[q&3]*th*poly(t2, &sinCoef))
}

// nearEdge reports whether clamp16 could round a value within noiseGuard of
// v differently from v.
func nearEdge(v float64) bool {
	if v <= -noiseGuard || v >= 65535+noiseGuard {
		return false
	}
	t := v + 0.5
	f := t - float64(int64(t))
	return f < noiseGuard || f > 1-noiseGuard || v < noiseGuard || v > 65535-noiseGuard
}

// gaussNoise adds N(0, σ²) noise to pix: the same draws from rng and the
// same pixels as clamp16(float64(p) + rng.Norm(0, sigma)) per pixel.
func gaussNoise(pix []uint16, rng *stats.RNG, sigma float64) {
	exact := sigma*approxZErr*1e3 > noiseGuard // too wide a σ for the guard
	for i, p := range pix {
		u1, u2 := rng.NormUniforms()
		// The conversions keep a fused multiply-add from changing the rounding.
		v := float64(p) + float64(sigma*approxZ(u1, u2))
		if exact || nearEdge(v) {
			v = float64(p) + float64(sigma*stats.BoxMuller(u1, u2))
		}
		pix[i] = clamp16(v)
	}
}
