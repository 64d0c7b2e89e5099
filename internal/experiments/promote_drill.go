package experiments

import (
	"fmt"
	"io"

	"triplec/internal/core"
	"triplec/internal/fault"
	"triplec/internal/promote"
	"triplec/internal/shadow"
)

// ReplayPromote runs the full promotion state machine (internal/promote)
// over a recorded synthetic trace deterministically, on the fleet driver
// the SLO drill shares (Fleet: every stream served round-robin from a
// single goroutine by the runtime manager's own frame step, the fault
// injector's spikes overlaid onto the modeled frame latency instead of
// sleeping on the wall clock). The transition log is written as
// transitions happen — so two runs with the same PromoteReplayConfig
// produce byte-identical logs. This is the `triplec promote` subcommand's
// engine and the determinism/rollback-latency test bed.

// PromoteReplayConfig parameterizes a deterministic promotion replay.
type PromoteReplayConfig struct {
	Streams int    // concurrent streams (default 2)
	Frames  int    // frames per stream (default 240)
	Seed    uint64 // synthetic-sequence base seed (default 11)
	Train   int    // training sequences (default 2)
	// BudgetMs fixes the per-frame latency budget; 0 initializes it from
	// each stream's first processed frame (the paper's rule).
	BudgetMs float64
	// Miscalibrate appends the deliberately miscalibrated challenger
	// (shadow.BackendMiscal) to every roster and names it the challenger —
	// the forced-rollback drill.
	Miscalibrate bool
	// Promote tunes the controller. Challenger is overridden to
	// shadow.BackendMiscal when Miscalibrate is set.
	Promote promote.Config
	// Fault, when set, injects deterministic faults on every stream; spike
	// durations are added to the modeled frame latency (no wall-clock
	// sleeps), panics fail the frame like the serving layer does.
	Fault *fault.Config
}

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

// ReplayPromote builds the fleet, runs the state machine over
// frames*streams serving steps and returns the result plus the controller.
// Transition-log lines stream to logW as they happen (pass io.Discard to
// skip).
func ReplayPromote(cfg PromoteReplayConfig, logW io.Writer) (*PromoteReplayResult, *promote.Controller, error) {
	if logW == nil {
		logW = io.Discard
	}
	pcfg := cfg.Promote
	if cfg.Miscalibrate {
		pcfg.Challenger = shadow.BackendMiscal
	}
	ctl, err := promote.NewController(pcfg)
	if err != nil {
		return nil, nil, err
	}
	fleet, err := NewFleet(FleetConfig{
		Streams: cfg.Streams, Frames: cfg.Frames, Seed: cfg.Seed, Train: cfg.Train,
		BudgetMs: cfg.BudgetMs, Fault: cfg.Fault,
	})
	if err != nil {
		return nil, nil, err
	}
	boards := make([]*shadow.Board, len(fleet.Streams))
	for i, st := range fleet.Streams {
		board, err := shadow.NewStreamBoard(fmt.Sprintf("stream%d", i), st.Manager.Predictor(), st.Corpus, cfg.Miscalibrate)
		if err != nil {
			return nil, nil, err
		}
		boards[i] = board
		if err := ctl.AttachStream(board.Stream(), board, st.Manager); err != nil {
			return nil, nil, err
		}
	}
	var logErr error
	ctl.SetOnTransition(func(t promote.Transition) {
		if _, err := fmt.Fprintln(logW, t.String()); err != nil && logErr == nil {
			logErr = err
		}
	})

	res := &PromoteReplayResult{
		Streams:           fleet.Config.Streams,
		Frames:            fleet.Config.Frames,
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
		boards[fr.Stream].ObserveFrame(&fr.Obs) // drives the controller via the board observer
		ctl.ObserveServed(fr.Stream, fr.Missed)
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
