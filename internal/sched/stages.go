package sched

import (
	"errors"

	"triplec/internal/pipeline"
)

// Software pipelining across frames: the flow graph splits at the stage cut
// of flowgraph.StageOf into an analysis front end (detect, RDG, MKX, CPLS,
// REG, ROI EST — the producers of the next frame's inputs) and an
// enhancement back end (GW, ENH, ZOOM). When the two stages run on disjoint
// core partitions, frame t's back end overlaps frame t+1's front end: the
// output latency stays front+back, but the sustainable period drops to
// max(front, back). The paper keeps a per-frame view; this analysis
// quantifies the throughput headroom of the two-stage split.

// PipelineEstimate summarizes a run under two-stage software pipelining.
type PipelineEstimate struct {
	AvgPeriodMs     float64 // mean sustainable inter-frame period
	AvgLatencyMs    float64 // mean per-frame latency (front + back)
	SpeedupVsSerial float64 // serial latency / pipelined period
}

// EstimatePipelining computes the two-stage pipelining estimate over a run.
func EstimatePipelining(reports []pipeline.Report) (PipelineEstimate, error) {
	if len(reports) == 0 {
		return PipelineEstimate{}, errors.New("sched: no reports")
	}
	var est PipelineEstimate
	for _, rep := range reports {
		front, back := rep.StageMs()
		est.AvgPeriodMs += max(front, back)
		est.AvgLatencyMs += front + back
	}
	est.AvgPeriodMs /= float64(len(reports))
	est.AvgLatencyMs /= float64(len(reports))
	if est.AvgPeriodMs > 0 {
		est.SpeedupVsSerial = est.AvgLatencyMs / est.AvgPeriodMs
	}
	return est, nil
}
