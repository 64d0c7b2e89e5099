package stream

import (
	"fmt"
	"time"
)

// This file is the per-stream restart supervisor (ServerConfig.Supervise):
// a serving loop that dies — stall past StallMs, nil source frame, planning
// failure — is restarted with capped exponential backoff instead of ending
// the stream. The crashed frame is accounted (failed, or abandoned for a
// stall) and serving resumes at the next frame, so one poisoned frame costs
// exactly one frame. A stream that keeps dying without making progress is
// quarantined: it stops serving, keeps its partial results, and is retired
// from the core arbitration so the healthy streams inherit its share
// immediately (MultiManager.Retire) instead of shedding load against a
// corpse's stale demand.

// The restart backoff: backoffMs after the first crash, doubled per
// consecutive crash without progress and capped at maxBackoffMs.
const (
	backoffMs    = 1.0
	maxBackoffMs = 100.0
)

// supervised drives serveFrames under the restart policy. It returns when
// the stream completes, or after quarantining it (res.Err set).
func (r *runner) supervised() {
	start := 0
	consecutive := 0 // crashes since the last frame of progress
	restarts := 0
	backoff := backoffMs
	var recoverySumMs float64
	for {
		r.sinceRestart = 0
		failedAt, stalled, err := r.serveFrames(start)
		if err == nil {
			return
		}
		crashedAt := time.Now()
		if r.sinceRestart > 0 {
			// The loop made progress before dying: the failure streak is
			// broken, so the backoff resets too.
			consecutive = 0
			backoff = backoffMs
		}
		consecutive++
		restarts++
		// Account the killing frame (its Offered was already counted) and
		// resume past it.
		r.recordLostFrame(failedAt, 0, 0, !stalled)
		if stalled && r.sc.Rebuild == nil {
			r.quarantine(fmt.Errorf("stalled without a Rebuild hook: %w", err))
			return
		}
		if consecutive > r.cfg.MaxRestarts {
			r.quarantine(fmt.Errorf("%d consecutive crashes without progress: %w", consecutive, err))
			return
		}
		if restarts > r.cfg.RestartBudget {
			r.quarantine(fmt.Errorf("restart budget of %d exhausted: %w", r.cfg.RestartBudget, err))
			return
		}
		time.Sleep(time.Duration(backoff * float64(time.Millisecond)))
		backoff *= 2
		if backoff > maxBackoffMs {
			backoff = maxBackoffMs
		}
		if stalled {
			// The old engine may still be executing on a leaked goroutine;
			// per the Engine concurrency contract it is dead to us. Build a
			// replacement and re-thread the telemetry hot paths.
			eng, mgr, rerr := r.sc.Rebuild()
			if rerr != nil || eng == nil || mgr == nil {
				r.quarantine(fmt.Errorf("rebuild after stall failed: %v (stall: %w)", rerr, err))
				return
			}
			mgr.BudgetMs = r.mgr.BudgetMs
			r.tel.rewire(eng, mgr, r.mgr)
			r.eng, r.mgr = eng, mgr
			// The rebuilt engine stripes through the shared host pool like
			// the original (serveOne wired the first one).
			r.eng.SetWorkers(r.pool)
			// Fresh builder + the runner as sink for the rebuilt pair (the
			// old builder stays with the poisoned engine, never committed).
			r.attachObservers()
			if r.cfg.Promote != nil {
				// The rebuilt manager starts un-steered; re-apply the
				// controller's current demand source so a stall during a
				// canary cannot silently drop the steering.
				r.cfg.Promote.Rewire(r.si, r.mgr)
			}
		}
		r.res.Stats.Restarts++
		r.tel.restarted()
		r.spanRestart(failedAt)
		// MeanRecoveryMs averages *completed* recoveries only: a crash that
		// ends in quarantine (above) never resumes serving, so its recovery
		// time is abandoned rather than folded in, and Stats.Restarts stays
		// at the completed count. The explicit guard keeps the accounting
		// NaN-free even if a future path computes the mean before the first
		// increment (quarantine on the very first restart leaves it zero).
		recoverySumMs += float64(time.Since(crashedAt).Nanoseconds()) / 1e6
		if n := r.res.Stats.Restarts; n > 0 {
			r.res.Stats.MeanRecoveryMs = recoverySumMs / float64(n)
		}
		start = failedAt + 1
	}
}

// quarantine ends the stream permanently: the error is recorded, the stats
// marked, and the stream retired from the core arbitration.
func (r *runner) quarantine(err error) {
	r.res.Err = fmt.Errorf("quarantined: %w", err)
	r.res.Stats.Quarantined = true
	r.ctl.quarantine(r.si)
	r.spanQuarantine()
}
