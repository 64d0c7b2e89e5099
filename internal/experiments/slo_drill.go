package experiments

import (
	"errors"
	"fmt"
	"math"

	"triplec/internal/fault"
	"triplec/internal/flowgraph"
	"triplec/internal/slo"
)

// SLOReportSchema identifies the `triplec slo` report document format.
const SLOReportSchema = "triplec-slo-v1"

// ReplaySLO drives the cause ledger and burn-rate engine (internal/slo)
// over a seeded synthetic fleet deterministically, on the fleet driver the
// promotion drill shares (Fleet: single goroutine, round-robin streams
// served by the runtime manager's own frame step, fault spikes overlaid
// onto modeled latency with no wall-clock sleeps or reads) and with
// fixed-order report slices — so two runs with the same SLOReplayConfig
// produce byte-identical reports. This is the `triplec slo` subcommand's
// engine and the page-fire/page-clear and sum-invariant test bed.

// SLOReplayConfig parameterizes a deterministic SLO replay: the deployment
// (its SLO config tunes the tracker; nil takes the defaults) and the
// fault-spike page drill.
type SLOReplayConfig struct {
	Deployment
	// Spike, when true, injects deterministic latency spikes on every
	// stream inside [SpikeFrom, SpikeTo) per-stream frames — the
	// fast-burn page drill: the page must fire inside the window and
	// clear after it slides out of the fast window. A window left unset at
	// both ends is [60, 120).
	Spike     bool
	SpikeFrom int     // first spiked per-stream frame
	SpikeTo   int     // one past the last spiked frame
	SpikeProb float64 // per-task spike probability (default 0.8)
	SpikeMs   float64 // spike magnitude in ms (default 25)
}

// fleetConfig maps the replay onto the fleet driver: the spike drill is a
// fault plan of spikes only on every stream, seeded like the sequences,
// gated to the [SpikeFrom, SpikeTo) window.
func (c SLOReplayConfig) fleetConfig() (FleetConfig, error) {
	fc := FleetConfig{Deployment: c.Deployment}
	if fc.SLO == nil {
		fc.SLO = &slo.Config{}
	}
	if c.SpikeFrom == 0 && c.SpikeTo == 0 {
		c.SpikeFrom, c.SpikeTo = 60, 120
	}
	if c.SpikeFrom < 0 || c.SpikeTo <= c.SpikeFrom {
		return fc, fmt.Errorf("slo: spike window [%d, %d) must start at 0 or later and be non-empty", c.SpikeFrom, c.SpikeTo)
	}
	if !c.Spike {
		return fc, nil
	}
	if c.SpikeProb == 0 {
		c.SpikeProb = 0.8
	}
	fc.Fault = &fault.Config{Seed: c.Seed, Defaults: fault.Probs{Spike: c.SpikeProb}, SpikeMs: c.SpikeMs}
	fc.Faulted = c.Streams
	fc.SpikeFrom, fc.SpikeTo = c.SpikeFrom, c.SpikeTo
	return fc, nil
}

// SLOReplayResult is the `triplec slo` report document.
type SLOReplayResult struct {
	Schema    string `json:"schema"`
	Streams   int    `json:"streams"`
	Frames    int    `json:"frames"`
	Seed      uint64 `json:"seed"`
	Spike     bool   `json:"spike"`
	Processed int    `json:"processed"`
	Failed    int    `json:"failed"`
	Misses    int    `json:"misses"`
	// MaxSumErrMs is the largest |sum(cause ms) - measured latency| seen
	// on any frame: the decomposition-exactness witness (must be ≤1e-6).
	MaxSumErrMs float64 `json:"max_sum_err_ms"`
	// FirstPageFrame is the fleet frame of the first deadline-SLO page
	// (-1 when none fired); PageCleared reports whether the last
	// deadline page returned to ok before the run ended.
	FirstPageFrame int         `json:"first_page_frame"`
	PageCleared    bool        `json:"page_cleared"`
	Status         *slo.Status `json:"status"`
}

// scenarioSink captures the predictor's scenario verdict for the frame
// being served (fired synchronously inside Manager.Observe).
type scenarioSink struct{ miss bool }

func (s *scenarioSink) TaskSample(int, float64, float64) {}
func (s *scenarioSink) ScenarioSample(predicted, actual flowgraph.Scenario) {
	s.miss = predicted != actual
}

// ReplaySLO builds the deployment on the fleet, serves frames*streams
// round-robin steps through the tracker and returns the report plus the
// tracker.
func ReplaySLO(cfg SLOReplayConfig) (*SLOReplayResult, *slo.Tracker, error) {
	fc, err := cfg.fleetConfig()
	if err != nil {
		return nil, nil, err
	}
	fleet, err := NewFleet(fc)
	if err != nil {
		return nil, nil, err
	}
	tracker := fleet.Tracker

	sinks := make([]scenarioSink, len(fleet.Streams))
	pendingFault := make([]bool, len(fleet.Streams))
	for i, st := range fleet.Streams {
		st.Manager.Predictor().SetMetricsSink(&sinks[i])
	}

	res := &SLOReplayResult{
		Schema:         SLOReportSchema,
		Streams:        fleet.Deployment.Streams,
		Frames:         fleet.Deployment.Frames,
		Seed:           fleet.Deployment.Seed,
		Spike:          cfg.Spike,
		FirstPageFrame: -1,
	}
	tracker.SetOnTransition(func(tr slo.Transition) {
		if tr.SLO == slo.SLODeadline && tr.To == slo.AlertPage && res.FirstPageFrame < 0 {
			res.FirstPageFrame = int(tr.Frame)
		}
	})

	var in slo.FrameInput
	var check slo.Breakdown
	err = fleet.Run(func(fr *FleetFrame) {
		si := fr.Stream
		if fr.Failed {
			res.Failed++
			pendingFault[si] = true
			return
		}
		res.Processed++
		in = slo.FrameInput{
			Stream:       si,
			Frame:        fr.Frame,
			LatencyMs:    fr.LatencyMs,
			PredictedMs:  fr.Decision.PredictedMs,
			BudgetMs:     fr.BudgetMs,
			ScenarioMiss: sinks[si].miss,
			FaultRecover: pendingFault[si],
			FaultMs:      fr.SpikeMs,
		}
		sinks[si].miss, pendingFault[si] = false, false
		if fr.Missed {
			res.Misses++
		}

		// Exactness witness: re-run the decomposition and compare the
		// cause sum against the measured latency.
		slo.Classify(&in, &check)
		sum := 0.0
		for c := 0; c < slo.NumCauses; c++ {
			sum += check.Ms[c]
		}
		if err := math.Abs(sum - fr.LatencyMs); err > res.MaxSumErrMs {
			res.MaxSumErrMs = err
		}

		tracker.ObserveFrame(&in)
	})
	if err != nil {
		return nil, nil, fmt.Errorf("slo: %w", err)
	}

	// Quantize the exactness witness the same way the status block is
	// quantized: the jitter below 1e-9 is goroutine-order float noise.
	res.MaxSumErrMs = math.Round(res.MaxSumErrMs*1e9) / 1e9

	st := tracker.Status(true)
	res.Status = st
	res.PageCleared = true
	for _, s := range st.SLOs {
		if s.SLO == slo.SLODeadline.String() && s.State == slo.AlertPage.String() {
			res.PageCleared = false
		}
	}
	return res, tracker, nil
}

// CheckSLOReplay validates an SLO replay report: the decomposition must be
// exact to 1e-6, the ledger totals must reconcile, and (expectPage) the
// fault-spike drill must have fired a deadline page and cleared it.
func CheckSLOReplay(res *SLOReplayResult, expectPage bool) error {
	if res == nil {
		return errors.New("slo: nil report")
	}
	if res.Schema != SLOReportSchema {
		return fmt.Errorf("slo: schema %q, want %q", res.Schema, SLOReportSchema)
	}
	if res.MaxSumErrMs > 1e-6 {
		return fmt.Errorf("slo: cause decomposition off by %.3g ms (> 1e-6)", res.MaxSumErrMs)
	}
	if res.Status == nil {
		return errors.New("slo: report has no status block")
	}
	if got := int(res.Status.Fleet.Frames); got != res.Processed {
		return fmt.Errorf("slo: fleet ledger saw %d frames, replay processed %d", got, res.Processed)
	}
	if got := int(res.Status.Fleet.Missed); got != res.Misses {
		return fmt.Errorf("slo: fleet ledger counted %d misses, replay %d", got, res.Misses)
	}
	if expectPage {
		if res.FirstPageFrame < 0 {
			return errors.New("slo: expected a deadline page, none fired")
		}
		if !res.PageCleared {
			return errors.New("slo: deadline page never cleared")
		}
	}
	return nil
}
