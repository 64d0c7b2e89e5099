package stream

import (
	"triplec/internal/slo"
)

// This file threads the frame-latency cause ledger through the serving
// loop. Every processed frame is classified once, at commit time, from
// evidence the loop already has on hand: the admission directive (core
// arbitration), the predictor sink (scenario misses, staged by the runner
// during Manager.Observe), the degradation ladder, the supervisor (fault
// recovery via recordLostFrame), and the arbiter's rebalance counter. The
// path reuses one FrameInput scratch per stream and allocates nothing.

// observeSLO feeds one processed frame to the cause ledger and burn-rate
// tracker, and attaches the latency exemplar when enabled. The pending
// cross-frame flags are consumed (and cleared) even when no tracker is
// configured so they can never go stale.
func (r *runner) observeSLO(frameIdx int, mode Mode, predictedMs, latencyMs float64) {
	scenMiss, faultRec := r.pendingScenMiss, r.pendingFault
	r.pendingScenMiss, r.pendingFault = false, false
	t := r.cfg.SLO
	if t == nil {
		return
	}
	rebalanced := false
	if rb := r.ctl.rebalances(); rb != r.lastRebalances {
		r.lastRebalances = rb
		rebalanced = true
	}
	in := &r.sloIn
	*in = slo.FrameInput{
		Stream:      r.si,
		Frame:       frameIdx,
		LatencyMs:   latencyMs,
		PredictedMs: predictedMs,
		BudgetMs:    r.mgr.BudgetMs,
		// ModeSerial from the arbiter means this frame ran throttled while
		// waiting on cores owned by other streams.
		CoreWait:     mode == ModeSerial,
		ScenarioMiss: scenMiss,
		Rebalanced:   rebalanced,
		Degraded:     r.deg.Level() != 0,
		FaultRecover: faultRec,
	}
	t.ObserveFrame(in)
	if r.cfg.SLOExemplars && r.tel != nil {
		// ArmedDumpSeq is -1 when no flight-recorder dump is pending, so the
		// exemplar's dump label is omitted from the exposition.
		r.tel.acct.FrameLatencyMs.AttachExemplar(latencyMs, int64(frameIdx), int64(r.fr.ArmedDumpSeq()))
	}
}
