package experiments

import (
	"errors"
	"fmt"
	"time"

	"triplec/internal/core"
	"triplec/internal/fault"
	"triplec/internal/pipeline"
	"triplec/internal/sched"
	"triplec/internal/tasks"
)

// This file is the one deterministic driver that replays a built deployment
// without the serving layer's goroutines and clocks: the promote and slo
// drills run on it.

// FleetConfig parameterizes a deterministic fleet replay: the deployment it
// builds and replays, and the spike gate. Spikes never sleep: their
// durations accumulate into the latency the frame is judged on, so the
// replay is wall-clock free and repeatable. Panics fail the frame like the
// serving layer does.
type FleetConfig struct {
	Deployment
	// SpikeTo, when positive, gates the overlay: only spikes fired on
	// per-stream frames in [SpikeFrom, SpikeTo) count.
	SpikeFrom, SpikeTo int
}

// Fleet is a built deployment replayed round-robin from one goroutine.
type Fleet struct {
	*Built

	spikeFrom, spikeTo int // the spike gate of FleetConfig
	framePixels        int
	processed          []int     // per stream: frames processed so far
	overlay            []float64 // per stream: spike ms injected into the frame in flight
	spikesCount        bool      // the spike gate, raised and lowered by Run
}

// FleetFrame is one served frame as Run hands it to its callback. The value
// is reused between calls.
type FleetFrame struct {
	Stream, Frame int // stream index, per-stream frame index
	// Failed marks a frame lost to a recovered task panic; the remaining
	// fields are zero for it.
	Failed   bool
	Decision sched.Decision
	Obs      core.Observation // the observation the manager was fed
	// LatencyMs is what the frame is judged on — the modeled latency plus
	// SpikeMs, the injected spike time — against BudgetMs, the stream's
	// budget once the frame was observed.
	LatencyMs, SpikeMs, BudgetMs float64
	Missed                       bool
}

// NewFleet builds the deployment and readies it for replay: the injector's
// spikes are charged to modeled latency instead of slept, and the promotion
// controller, if any, is attached to every stream's board and manager in
// stream order, as stream.NewServer attaches them.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	b, err := cfg.Build(nil)
	if err != nil {
		return nil, err
	}
	fl := &Fleet{
		Built:       b,
		spikeFrom:   cfg.SpikeFrom,
		spikeTo:     cfg.SpikeTo,
		framePixels: b.Study.FramePixels(),
		processed:   make([]int, cfg.Streams),
		overlay:     make([]float64, cfg.Streams),
	}
	if inj := b.Injector; inj != nil {
		spikeMs := cfg.Fault.SpikeMs
		if spikeMs == 0 {
			spikeMs = 25 // the injector's own default
		}
		inj.SetSleep(func(time.Duration) {})
		inj.SetOnFault(func(si int, _ tasks.Name, _ int, kind fault.Kind) {
			if fl.spikesCount && kind == fault.KindSpike && si >= 0 && si < len(fl.overlay) {
				fl.overlay[si] += spikeMs
			}
		})
	}
	if ctl := b.Controller; ctl != nil {
		for _, st := range fl.Streams {
			if err := ctl.AttachStream(st.Board.Stream(), st.Board, st.Manager); err != nil {
				return nil, err
			}
		}
	}
	return fl, nil
}

// Run serves Deployment.Frames frames on every stream, one sched.Manager.Step
// per stream per round, and hands each frame — served or failed — to serve.
// A served frame reaches the stream's shadow board and then the promotion
// controller's deadline guard first, as in the serving loop.
func (fl *Fleet) Run(serve func(*FleetFrame)) error {
	var fr FleetFrame
	for fi := 0; fi < fl.Deployment.Frames; fi++ {
		fl.spikesCount = fl.spikeTo <= 0 || (fi >= fl.spikeFrom && fi < fl.spikeTo)
		for si, st := range fl.Streams {
			fl.overlay[si] = 0
			f := st.Source(fi)
			if f == nil {
				return fmt.Errorf("stream %d frame %d: nil source frame", si, fi)
			}
			fr = FleetFrame{Stream: si, Frame: fi}
			dec, rep, err := st.Manager.Step(st.Engine, f, fl.processed[si] == 0, fl.framePixels, &fr.Obs)
			if err != nil {
				var te *pipeline.TaskError
				if !errors.As(err, &te) {
					return fmt.Errorf("stream %d frame %d: %w", si, fi, err)
				}
				fr.Failed = true
				serve(&fr)
				continue
			}
			fl.processed[si]++
			fr.Decision = dec
			fr.SpikeMs = fl.overlay[si]
			fr.LatencyMs = rep.LatencyMs + fr.SpikeMs
			fr.BudgetMs = st.Manager.BudgetMs
			fr.Missed = fr.BudgetMs > 0 && fr.LatencyMs > fr.BudgetMs
			if st.Board != nil {
				st.Board.ObserveFrame(&fr.Obs) // drives the controller via the board observer
			}
			if fl.Controller != nil {
				fl.Controller.ObserveServed(si, fr.Missed)
			}
			serve(&fr)
		}
	}
	return nil
}
