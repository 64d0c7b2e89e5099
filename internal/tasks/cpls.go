package tasks

import (
	"math"

	"triplec/internal/platform"
)

// CouplesSelector implements CPLS SEL: based on the a-priori known distance
// between the balloon markers, select the best marker couple from the set of
// candidate couples. The workload grows quadratically with the candidate
// count, which is the data-dependent behaviour the paper models with a
// Markov chain.
type CouplesSelector struct {
	// KnownSpacing is the a-priori balloon-marker distance in pixels.
	KnownSpacing float64
	// Tolerance is the acceptable relative deviation from KnownSpacing.
	Tolerance float64

	Params CostParams

	// chunk is the unused tail of the couples Run hands out, so a frame's
	// couple costs no allocation of its own. A Couple holds no pointers: a
	// kept one pins only its chunk.
	chunk []Couple
}

// coupleChunk is how many couples one chunk holds (14 KB).
const coupleChunk = 256

// NewCouplesSelector returns a selector for the given marker spacing prior.
func NewCouplesSelector(spacing float64, p CostParams) *CouplesSelector {
	return &CouplesSelector{KnownSpacing: spacing, Tolerance: 0.25, Params: p}
}

// Run evaluates all candidate pairs and returns the best couple, or nil if
// no pair satisfies the spacing prior. The cost is proportional to the
// number of pairs evaluated. The couple is never handed out again: the
// caller may keep and modify it.
func (c *CouplesSelector) Run(cands []Marker) (*Couple, platform.Cost) {
	pairs := 0
	bi, bj, bestScore := -1, -1, 0.0
	for i := 0; i < len(cands); i++ {
		for j := i + 1; j < len(cands); j++ {
			pairs++
			d := cands[i].Dist(cands[j])
			if c.KnownSpacing <= 0 {
				continue
			}
			rel := math.Abs(d-c.KnownSpacing) / c.KnownSpacing
			if rel > c.Tolerance {
				continue
			}
			// Pairing quality: spacing agreement times the markers' own
			// scores; symmetric in i, j.
			score := (1 - rel/c.Tolerance) * (cands[i].Score + cands[j].Score)
			if bi < 0 || score > bestScore {
				bi, bj, bestScore = i, j, score
			}
		}
	}
	cost := c.Params.cost(float64(pairs) * pairPerCouple)
	if bi < 0 {
		return nil, cost
	}
	if len(c.chunk) == 0 {
		c.chunk = make([]Couple, coupleChunk)
	}
	best := &c.chunk[0]
	c.chunk = c.chunk[1:]
	*best = Couple{A: cands[bi], B: cands[bj], Spacing: cands[bi].Dist(cands[bj])}
	return best, cost
}
