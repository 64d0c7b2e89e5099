package sched

import (
	"errors"

	"triplec/internal/pipeline"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Software pipelining across frames: the flow graph splits naturally at the
// registration switch into an analysis front end (detect, RDG, MKX, CPLS,
// REG) and an enhancement back end (ROI EST, GW, ENH, ZOOM). When the two
// stages run on disjoint core partitions, frame t's back end overlaps frame
// t+1's front end: the output latency stays front+back, but the sustainable
// period drops to max(front, back). The paper keeps a per-frame view; this
// analysis quantifies the throughput headroom of the two-stage split.

// backEndTasks lists the enhancement-stage tasks.
var backEndTasks = map[tasks.Name]bool{
	tasks.NameROIEst: true,
	tasks.NameGWExt:  true,
	tasks.NameENH:    true,
	tasks.NameZOOM:   true,
}

// SplitStages divides a frame report's task times at the registration
// boundary and returns the front-end and back-end stage times.
func SplitStages(rep pipeline.Report) (frontMs, backMs float64) {
	for _, e := range rep.Execs {
		if backEndTasks[e.Task] {
			backMs += e.Ms
		} else {
			frontMs += e.Ms
		}
	}
	return frontMs, backMs
}

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
	periods := make([]float64, len(reports))
	latencies := make([]float64, len(reports))
	for i, rep := range reports {
		front, back := SplitStages(rep)
		period := front
		if back > period {
			period = back
		}
		periods[i] = period
		latencies[i] = front + back
	}
	est := PipelineEstimate{
		AvgPeriodMs:  stats.Mean(periods),
		AvgLatencyMs: stats.Mean(latencies),
	}
	if est.AvgPeriodMs > 0 {
		est.SpeedupVsSerial = est.AvgLatencyMs / est.AvgPeriodMs
	}
	return est, nil
}
