// The analytical speedup estimator for the software-pipelined executor
// (pipeline.RunPipelined): it predicts the attainable multi-frame pipeline
// speedup from the task graph's stage structure, the per-task measured
// times, and the memory model's bandwidth ceiling — and it computes the
// *measured* speedup from the same per-frame reports via the modeled
// window-2 schedule, so the prediction is falsifiable frame set by frame
// set (the Triple-C methodology applied to the pipelining decision itself:
// predict the gain before paying for the restructuring).
//
// The model: within a frame the flow graph is a chain, so each stage's
// critical path is the sum of its active tasks — F (front: DETECT … ROI_EST)
// and B (back: GW_EXT, ENH, ZOOM). With the window-2 overlap the steady-
// state initiation interval of the pipeline is max(F, B), the classic
// software-pipelining bound; the roofline correction raises that to
// max(F, B, M) where M is the frame's external-memory traffic divided by
// the platform's memory bandwidth — once both halves run concurrently the
// bus is shared, and a frame cannot retire faster than its traffic drains.
// Scenario switches change F and B frame to frame, so the estimate weights
// each observed scenario by its frequency.

package mapping

import (
	"errors"
	"math"

	"triplec/internal/flowgraph"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
)

// Timeline is the modeled window-2 schedule of a processed frame sequence:
// deterministic play-out of the recurrence
//
//	frontDone[k] = max(frontDone[k-1], backDone[k-2]) + F[k]
//	backDone[k]  = max(frontDone[k],  backDone[k-1]) + B[k]
//
// (fronts serialized by the registration dependency edge, backs serialized
// by the enhancer's temporal stack, at most two frames in flight). Because
// it runs on the machine model's per-task milliseconds rather than host
// wall clock, the measured speedup is bit-reproducible on any machine.
type Timeline struct {
	FrontMs    []float64 // per-frame front-stage critical path, ms
	BackMs     []float64 // per-frame back-stage critical path, ms
	SerialMs   float64   // sum of all stage times: the serial makespan
	MakespanMs float64   // pipelined makespan under the recurrence
}

// MeasureTimeline plays the window-2 schedule out over the reports' per-
// task measured times.
func MeasureTimeline(reports []pipeline.Report) Timeline {
	n := len(reports)
	t := Timeline{FrontMs: make([]float64, n), BackMs: make([]float64, n)}
	for k, r := range reports {
		f, b := r.StageMs()
		t.FrontMs[k], t.BackMs[k] = f, b
		t.SerialMs += f + b
	}
	var prevFront, prevBack, prevPrevBack float64
	for k := 0; k < n; k++ {
		frontStart := prevFront
		if k > 1 && prevPrevBack > frontStart {
			frontStart = prevPrevBack
		}
		frontDone := frontStart + t.FrontMs[k]
		backStart := frontDone
		if prevBack > backStart {
			backStart = prevBack
		}
		backDone := backStart + t.BackMs[k]
		prevFront, prevPrevBack, prevBack = frontDone, prevBack, backDone
	}
	t.MakespanMs = prevBack
	return t
}

// RooflineMs converts a frame's external-memory traffic into the time the
// shared bus needs to drain it: bytes / (GB/s * 1e9 B/GB) = seconds, * 1e3 =
// ms. Once both pipeline halves run concurrently the bus is shared, so a
// frame can never retire faster than this floor — the roofline term the
// estimator and the mapping optimizer both charge a candidate schedule with.
// Non-positive or non-finite bandwidth yields 0 (no modeled ceiling).
func RooflineMs(bytes float64, arch platform.Arch) float64 {
	if arch.MemBWGBs <= 0 || math.IsNaN(arch.MemBWGBs) || bytes <= 0 {
		return 0
	}
	return bytes / (arch.MemBWGBs * 1e9) * 1e3
}

// ScenarioTerm is one scenario's contribution to the estimate.
type ScenarioTerm struct {
	Weight  float64 // frequency of the scenario in the observed run
	FrontMs float64 // mean front-stage critical path
	BackMs  float64 // mean back-stage critical path
	MemMs   float64 // roofline floor: mean memory traffic / bandwidth
}

// Bottleneck returns the scenario's steady-state initiation interval:
// the software-pipelining bound max(F, B) raised to the memory roofline.
func (s ScenarioTerm) Bottleneck() float64 {
	m := s.FrontMs
	if s.BackMs > m {
		m = s.BackMs
	}
	if s.MemMs > m {
		m = s.MemMs
	}
	return m
}

// Estimate is the analytical prediction of the attainable pipeline speedup.
type Estimate struct {
	Terms []ScenarioTerm
	// SerialMsPerFrame is the scenario-weighted mean serial frame time.
	SerialMsPerFrame float64
	// PipelinedMsPerFrame is the scenario-weighted mean initiation interval.
	PipelinedMsPerFrame float64
	// Speedup = SerialMsPerFrame / PipelinedMsPerFrame; in (1, 2] for a
	// two-stage pipeline unless the memory roofline binds below 1.
	Speedup float64
	// MemBoundFrac is the weight of scenarios whose memory floor is the
	// bottleneck — when large, more cores or deeper windows cannot help.
	MemBoundFrac float64
}

// Predict builds the analytical estimate from observed per-frame reports
// (e.g. a short profiling prefix) and the platform's bandwidth ceiling.
func Predict(reports []pipeline.Report, arch platform.Arch) (Estimate, error) {
	if len(reports) == 0 {
		return Estimate{}, errors.New("speedup: no reports to estimate from")
	}
	if arch.MemBWGBs <= 0 || math.IsNaN(arch.MemBWGBs) {
		return Estimate{}, errors.New("speedup: architecture has no memory bandwidth")
	}
	type acc struct {
		n               int
		front, back, mb float64
	}
	byScenario := map[flowgraph.Scenario]*acc{}
	for _, r := range reports {
		a := byScenario[r.Scenario]
		if a == nil {
			a = &acc{}
			byScenario[r.Scenario] = a
		}
		f, b := r.StageMs()
		a.front += f
		a.back += b
		for _, e := range r.Execs {
			a.mb += e.Cost.MemBytes
		}
		a.n++
	}
	est := Estimate{}
	total := float64(len(reports))
	for _, s := range flowgraph.AllScenarios() {
		a := byScenario[s]
		if a == nil {
			continue
		}
		cnt := float64(a.n)
		term := ScenarioTerm{
			Weight:  cnt / total,
			FrontMs: a.front / cnt,
			BackMs:  a.back / cnt,
			MemMs:   RooflineMs(a.mb/cnt, arch),
		}
		est.Terms = append(est.Terms, term)
		est.SerialMsPerFrame += term.Weight * (term.FrontMs + term.BackMs)
		bn := term.Bottleneck()
		est.PipelinedMsPerFrame += term.Weight * bn
		if term.MemMs >= bn && term.MemMs > term.FrontMs && term.MemMs > term.BackMs {
			est.MemBoundFrac += term.Weight
		}
	}
	if est.PipelinedMsPerFrame > 0 {
		est.Speedup = est.SerialMsPerFrame / est.PipelinedMsPerFrame
	} else {
		est.Speedup = 1
	}
	return est, nil
}
