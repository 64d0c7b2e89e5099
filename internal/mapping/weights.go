package mapping

import "math"

// Pressures are the normalized scenario pressures that steer the objective
// weights, each in [0, 1] — the adaptive-weight shape of the HPRSA
// heterogeneous-scheduling exemplar: rather than fixing the
// latency/throughput trade-off ahead of time, measure how much each concern
// currently binds and soften the objective toward it.
type Pressures struct {
	// Deadline is how tightly the stream's serial latency presses against
	// its frame budget (1: at or past the deadline without parallelism).
	Deadline float64
	// Scarcity is how oversubscribed the machine is (streams vs. cores).
	Scarcity float64
	// Comm is how large the stage-handoff cost is relative to a frame.
	Comm float64
}

// Weights are the objective weights picked from the pressures: they sum to
// 1 and weight the normalized latency, period, and communication terms of a
// candidate's score.
type Weights struct {
	Latency    float64
	Throughput float64
	Comm       float64
}

// Beta is the softmax temperature: higher values commit harder to the
// currently dominant pressure.
const Beta = 2.0

// clamp01 clamps to [0, 1]; NaN maps to 0.
func clamp01(v float64) float64 {
	if !(v > 0) { // catches NaN
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

// ComputePressures derives the scenario pressures for one stream.
// serialMs is the stream's predicted serial frame latency, budgetMs its
// frame deadline (0: unknown, neutral pressure), streams and cores the
// machine-level occupancy, commMs the stream's mean stage-handoff cost.
func ComputePressures(serialMs, budgetMs float64, streams, cores int, commMs float64) Pressures {
	p := Pressures{Deadline: 0.5, Scarcity: 0.5}
	if budgetMs > 0 && serialMs > 0 {
		p.Deadline = clamp01(serialMs / (2 * budgetMs))
	}
	if cores > 0 && streams > 0 {
		p.Scarcity = clamp01(float64(streams) / float64(cores))
	}
	if serialMs > 0 {
		p.Comm = clamp01(commMs / serialMs)
	}
	return p
}

// Softmax maps the pressures to objective weights: w = softmax(Beta·ρ).
// Deadline pressure favors the latency criterion, scarcity the throughput
// criterion (a scarce machine must maximize frames retired per unit time,
// the Pareto front's period axis), and communication pressure penalizes
// handoff-heavy mappings.
func (p Pressures) Softmax() Weights {
	ed := math.Exp(Beta * clamp01(p.Deadline))
	es := math.Exp(Beta * clamp01(p.Scarcity))
	ec := math.Exp(Beta * clamp01(p.Comm))
	z := ed + es + ec
	return Weights{Latency: ed / z, Throughput: es / z, Comm: ec / z}
}

// Score is the weighted objective of a candidate, normalized by the
// stream's serial reference so scores are comparable across streams of very
// different frame costs: the serial candidate scores exactly
// w.Latency + w.Throughput, and any mapping the model considers an
// improvement scores lower.
func (w Weights) Score(c Candidate, serialRef Candidate) float64 {
	ref := serialRef.LatencyMs
	if ref <= 0 {
		ref = 1
	}
	refPeriod := serialRef.PeriodMs
	if refPeriod <= 0 {
		refPeriod = ref
	}
	return w.Latency*(c.LatencyMs/ref) +
		w.Throughput*(c.PeriodMs/refPeriod) +
		w.Comm*(c.CommMs/ref)
}
