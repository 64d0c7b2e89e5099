package slo

import (
	"errors"
	"fmt"
	"math"

	"triplec/internal/experiments"
	"triplec/internal/fault"
	"triplec/internal/flowgraph"
)

// ReportSchema identifies the `triplec slo` report document format.
const ReportSchema = "triplec-slo-v1"

// Replay drives the cause ledger and burn-rate engine over a seeded
// synthetic fleet deterministically, on the fleet driver the promotion
// drill shares (experiments.Fleet: single goroutine, round-robin streams
// served by the runtime manager's own frame step, fault spikes overlaid
// onto modeled latency with no wall-clock sleeps or reads) and with
// fixed-order report slices — so two runs with the same ReplayConfig
// produce byte-identical reports. This is the `triplec slo` subcommand's
// engine and the page-fire/page-clear and sum-invariant test bed.

// ReplayConfig parameterizes a deterministic SLO replay.
type ReplayConfig struct {
	Streams int    // concurrent streams (default 2)
	Frames  int    // frames per stream (default 240)
	Seed    uint64 // synthetic-sequence base seed (default 11)
	Train   int    // training sequences (default 2)
	// BudgetMs fixes the per-frame latency budget; 0 initializes it from
	// each stream's first processed frame (the paper's rule).
	BudgetMs float64
	// SLO tunes the tracker; Streams is overridden to match.
	SLO Config
	// Spike, when true, injects deterministic latency spikes on every
	// stream inside [SpikeFrom, SpikeTo) per-stream frames — the
	// fast-burn page drill: the page must fire inside the window and
	// clear after it slides out of the fast window.
	Spike     bool
	SpikeFrom int     // first spiked per-stream frame (default 60)
	SpikeTo   int     // one past the last spiked frame (default 120)
	SpikeProb float64 // per-task spike probability (default 0.8)
	SpikeMs   float64 // spike magnitude in ms (default 25)
}

// fleetConfig maps the replay onto the fleet driver: the spike drill is a
// fault plan of spikes only, seeded like the sequences, gated to the
// [SpikeFrom, SpikeTo) window.
func (c ReplayConfig) fleetConfig() experiments.FleetConfig {
	fc := experiments.FleetConfig{
		Streams: c.Streams, Frames: c.Frames, Seed: c.Seed, Train: c.Train, BudgetMs: c.BudgetMs,
	}.WithDefaults()
	if !c.Spike {
		return fc
	}
	if c.SpikeFrom <= 0 {
		c.SpikeFrom = 60
	}
	if c.SpikeTo <= c.SpikeFrom {
		c.SpikeTo = c.SpikeFrom + 60
	}
	if c.SpikeProb <= 0 {
		c.SpikeProb = 0.8
	}
	if c.SpikeMs <= 0 {
		c.SpikeMs = 25
	}
	fc.Fault = &fault.Config{Seed: fc.Seed, Defaults: fault.Probs{Spike: c.SpikeProb}, SpikeMs: c.SpikeMs}
	fc.SpikeFrom, fc.SpikeTo = c.SpikeFrom, c.SpikeTo
	return fc
}

// ReplayResult is the `triplec slo` report document.
type ReplayResult struct {
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
	FirstPageFrame int     `json:"first_page_frame"`
	PageCleared    bool    `json:"page_cleared"`
	Status         *Status `json:"status"`
}

// scenarioSink captures the predictor's scenario verdict for the frame
// being served (fired synchronously inside Manager.Observe).
type scenarioSink struct{ miss bool }

func (s *scenarioSink) TaskSample(int, float64, float64) {}
func (s *scenarioSink) ScenarioSample(predicted, actual flowgraph.Scenario) {
	s.miss = predicted != actual
}

// Replay builds the fleet, serves frames*streams round-robin steps
// through the tracker and returns the report plus the tracker.
func Replay(cfg ReplayConfig) (*ReplayResult, *Tracker, error) {
	fleet, err := experiments.NewFleet(cfg.fleetConfig())
	if err != nil {
		return nil, nil, err
	}
	cfg.SLO.Streams = len(fleet.Streams)
	tracker := NewTracker(cfg.SLO)

	sinks := make([]scenarioSink, len(fleet.Streams))
	pendingFault := make([]bool, len(fleet.Streams))
	for i, st := range fleet.Streams {
		st.Manager.Predictor().SetMetricsSink(&sinks[i])
	}

	res := &ReplayResult{
		Schema:         ReportSchema,
		Streams:        fleet.Config.Streams,
		Frames:         fleet.Config.Frames,
		Seed:           fleet.Config.Seed,
		Spike:          cfg.Spike,
		FirstPageFrame: -1,
	}
	tracker.SetOnTransition(func(tr Transition) {
		if tr.SLO == SLODeadline && tr.To == AlertPage && res.FirstPageFrame < 0 {
			res.FirstPageFrame = int(tr.Frame)
		}
	})

	var in FrameInput
	var check Breakdown
	err = fleet.Run(func(fr *experiments.FleetFrame) {
		si := fr.Stream
		if fr.Failed {
			res.Failed++
			pendingFault[si] = true
			return
		}
		res.Processed++
		in = FrameInput{
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
		Classify(&in, &check)
		sum := 0.0
		for c := 0; c < NumCauses; c++ {
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
		if s.SLO == SLODeadline.String() && s.State == AlertPage.String() {
			res.PageCleared = false
		}
	}
	return res, tracker, nil
}

// Check validates a replay report: the decomposition must be exact to
// 1e-6, the ledger totals must reconcile, and (expectPage) the
// fault-spike drill must have fired a deadline page and cleared it.
func Check(res *ReplayResult, expectPage bool) error {
	if res == nil {
		return errors.New("slo: nil report")
	}
	if res.Schema != ReportSchema {
		return fmt.Errorf("slo: schema %q, want %q", res.Schema, ReportSchema)
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
