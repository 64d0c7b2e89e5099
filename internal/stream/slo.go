package stream

import (
	"triplec/internal/slo"
)

// This file threads the frame-latency cause ledger through the serving
// loop. Every processed frame is classified once, at commit time, from
// evidence its outcome record carries: the admission directive (core
// arbitration), the scenario miss the predictor sink noted during
// Manager.Observe, plus the degradation ladder, the fault-recovery flag a
// failed or abandoned frame leaves for the next one, and the arbiter's
// rebalance counter. The path reuses one FrameInput scratch per stream and
// allocates nothing.

// observeSLO feeds one processed frame to the cause ledger and burn-rate
// tracker, and attaches the latency exemplar when enabled. The pending
// fault flag is consumed (and cleared) even when no tracker is configured
// so it can never go stale.
func (r *runner) observeSLO(o *outcome) {
	faultRec := r.pendingFault
	r.pendingFault = false
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
		Frame:       o.frame,
		LatencyMs:   o.latencyMs,
		PredictedMs: o.predictedMs,
		BudgetMs:    r.mgr.BudgetMs,
		// ModeSerial from the arbiter means this frame ran throttled while
		// waiting on cores owned by other streams.
		CoreWait:     o.mode == ModeSerial,
		ScenarioMiss: o.scenMiss,
		Rebalanced:   rebalanced,
		Degraded:     r.deg.Level() != 0,
		FaultRecover: faultRec,
	}
	t.ObserveFrame(in)
	if r.cfg.SLOExemplars && r.tel != nil {
		// ArmedDumpSeq is -1 when no flight-recorder dump is pending, so the
		// exemplar's dump label is omitted from the exposition.
		r.tel.acct.FrameLatencyMs.AttachExemplar(o.latencyMs, int64(o.frame), int64(r.fr.ArmedDumpSeq()))
	}
}
