package mapping

import "math"

// dominates reports whether a is at least as good as b on both criteria and
// strictly better on one. Communication cost is not a third axis: it is
// already folded into both latency and period, and keeping the front
// two-dimensional keeps it small and interpretable.
func dominates(a, b Candidate) bool {
	if a.LatencyMs > b.LatencyMs || a.PeriodMs > b.PeriodMs {
		return false
	}
	return a.LatencyMs < b.LatencyMs || a.PeriodMs < b.PeriodMs
}

// pickFront filters one share's candidates — their criteria and scores, in
// enumeration order — down to the Pareto front over (latency, period) and
// returns the position of the front point of minimum score and the front's
// size. When two candidates tie exactly on both criteria only the earlier
// one is on the front: enumeration order puts simpler plans (serial, then
// striped, then pipelined splits) first, so ties resolve toward the simpler
// mapping. Of equal scores the earliest front point wins; best is -1 when no
// front point scores below +Inf (every score NaN, say).
func pickFront(cands []Candidate, score []float64) (best, points int) {
	score = score[:len(cands)]
	best = -1
	bestScore := math.Inf(1)
	for i := range cands {
		if !onFront(cands, i) {
			continue
		}
		points++
		if s := score[i]; s < bestScore {
			best, bestScore = i, s
		}
	}
	return best, points
}

// onFront reports whether no candidate dominates cands[i] and no earlier
// one ties it exactly.
func onFront(cands []Candidate, i int) bool {
	c := cands[i]
	for j, o := range cands {
		if dominates(o, c) || j < i && o.LatencyMs == c.LatencyMs && o.PeriodMs == c.PeriodMs {
			return false
		}
	}
	return true
}
