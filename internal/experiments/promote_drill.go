package experiments

import (
	"errors"
	"fmt"
	"io"

	"triplec/internal/core"
	"triplec/internal/promote"
)

// ReplayPromote runs the full promotion state machine (internal/promote)
// over a recorded synthetic trace deterministically, on the fleet driver
// the SLO drill shares (Fleet: every stream served round-robin from a
// single goroutine by the runtime manager's own frame step, the fault
// injector's spikes overlaid onto the modeled frame latency instead of
// sleeping on the wall clock). The transition log is written as
// transitions happen — so two runs of the same Deployment produce
// byte-identical logs. This is the `triplec promote` subcommand's
// engine and the determinism/rollback-latency test bed.

// PromoteReplayResult summarizes a promotion replay.
type PromoteReplayResult struct {
	FinalState  promote.State        `json:"-"`
	FinalStateS string               `json:"final_state"`
	Transitions []promote.Transition `json:"transitions"`
	Streams     int                  `json:"streams"`
	Frames      int                  `json:"frames"`
	Processed   int                  `json:"processed"`
	Failed      int                  `json:"failed"`
	Misses      int                  `json:"misses"`
	// RollbackFrame is the fleet scored-frame count at the first rollback
	// (or quarantine), -1 when none happened.
	RollbackFrame int `json:"rollback_frame"`
	// RollbackLagFrames counts how many further per-stream serving steps
	// ran before every manager reported the baseline demand source again
	// (-1 when no rollback; 0 = instant, always ≤ one rebalance interval).
	RollbackLagFrames int `json:"rollback_lag_frames"`
	// PostRollbackMisses/Frames cover every frame served after the first
	// rollback, fleet-wide.
	PostRollbackMisses int `json:"post_rollback_misses"`
	PostRollbackFrames int `json:"post_rollback_frames"`
}

// PostRollbackMissRate is the fleet deadline-miss rate after the first
// rollback (0 when no frames followed it).
func (r *PromoteReplayResult) PostRollbackMissRate() float64 {
	if r.PostRollbackFrames == 0 {
		return 0
	}
	return float64(r.PostRollbackMisses) / float64(r.PostRollbackFrames)
}

// ReplayPromote builds the deployment on the fleet, runs the state machine
// over frames*streams serving steps and returns the result plus the
// controller. d must name a predictor policy. Transition-log lines stream
// to logW as they happen (pass io.Discard to skip).
func ReplayPromote(d Deployment, logW io.Writer) (*PromoteReplayResult, *promote.Controller, error) {
	if logW == nil {
		logW = io.Discard
	}
	if d.policy() == "" {
		return nil, nil, errors.New("promote: the drill needs a predictor policy")
	}
	fleet, err := NewFleet(FleetConfig{Deployment: d})
	if err != nil {
		return nil, nil, err
	}
	ctl := fleet.Controller
	var logErr error
	ctl.SetOnTransition(func(t promote.Transition) {
		if _, err := fmt.Fprintln(logW, t.String()); err != nil && logErr == nil {
			logErr = err
		}
	})

	res := &PromoteReplayResult{
		Streams:           fleet.Deployment.Streams,
		Frames:            fleet.Deployment.Frames,
		RollbackFrame:     -1,
		RollbackLagFrames: -1,
	}
	seenTransitions := 0
	rolledBack := false
	pendingLag := false
	lagSteps := 0

	err = fleet.Run(func(fr *FleetFrame) {
		if rolledBack {
			res.PostRollbackFrames++
		}
		if fr.Failed {
			res.Failed++
			return
		}
		res.Processed++
		if fr.Missed {
			res.Misses++
			if rolledBack {
				res.PostRollbackMisses++
			}
		}

		// Rollback-latency accounting: after the first rollback, count
		// serving steps until every manager plans from the baseline again.
		if ts := ctl.Transitions(); len(ts) > seenTransitions {
			for _, t := range ts[seenTransitions:] {
				if !rolledBack && (t.To == promote.StateRolledBack || t.To == promote.StateQuarantined) {
					rolledBack = true
					pendingLag = true
					lagSteps = 0
					res.RollbackFrame = int(t.Frame)
				}
			}
			seenTransitions = len(ts)
		}
		if pendingLag {
			allBaseline := true
			for _, other := range fleet.Streams {
				if other.Manager.DemandSourceName() != core.BackendBaseline {
					allBaseline = false
					break
				}
			}
			if allBaseline {
				res.RollbackLagFrames = lagSteps
				pendingLag = false
			} else {
				lagSteps++
			}
		}
	})
	if err != nil {
		return nil, nil, fmt.Errorf("promote: %w", err)
	}
	if logErr != nil {
		return nil, nil, logErr
	}
	res.FinalState = ctl.State()
	res.FinalStateS = res.FinalState.String()
	res.Transitions = ctl.Transitions()
	return res, ctl, nil
}
