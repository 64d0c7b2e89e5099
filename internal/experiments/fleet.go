package experiments

import (
	"errors"
	"fmt"
	"time"

	"triplec/internal/core"
	"triplec/internal/fault"
	"triplec/internal/frame"
	"triplec/internal/pipeline"
	"triplec/internal/sched"
	"triplec/internal/tasks"
)

// This file is the one recipe for a served stream — what `triplec serve`,
// `chaos`, the promote/slo drills, the examples and the stream tests all put
// under a runtime manager — and the one deterministic driver that replays a
// fleet of such streams without the serving layer's goroutines and clocks.

// ServingStudy is the study the serving commands train on: the default
// geometry with train sequences of 60 frames each.
func ServingStudy(train int) Study {
	s := DefaultStudy()
	s.TrainSeqs = train
	s.TrainFrames = 60
	return s
}

// Served is one stream ready to serve: a fresh engine, a sticky runtime
// manager around a stream-private trained predictor, and the stream's
// seeded frame source. Corpus is the profiled training corpus the predictor
// was trained on (shared between the study's streams, read-only) — what a
// shadow roster racing that predictor trains on.
type Served struct {
	Engine  *pipeline.Engine
	Manager *sched.Manager
	Source  func(int) *frame.Frame
	Corpus  [][]core.Observation
}

// ManagedEngine builds a fresh engine and a runtime manager around p. The
// manager is sticky: a served stream keeps its mapping while it still meets
// the predicted demand. This is also what a stream rebuilds after a stall
// (stream.Config.Rebuild), around the predictor it already has.
func (s Study) ManagedEngine(p *core.Predictor) (*pipeline.Engine, *sched.Manager, error) {
	eng, err := s.Engine()
	if err != nil {
		return nil, nil, err
	}
	mgr, err := sched.NewManager(p, s.Arch)
	if err != nil {
		return nil, nil, err
	}
	mgr.Sticky = true
	return eng, mgr, nil
}

// ServedStream builds stream i of a fleet with the given base seed. Streams
// of one fleet play distinct synthetic sequences (stream 0 plays the base
// seed's) and share nothing mutable.
func (s Study) ServedStream(seed uint64, i int) (*Served, error) {
	p, corpus, err := s.train()
	if err != nil {
		return nil, err
	}
	eng, mgr, err := s.ManagedEngine(p)
	if err != nil {
		return nil, err
	}
	seq, err := s.Sequence(seed + uint64(i)*1013)
	if err != nil {
		return nil, err
	}
	return &Served{Engine: eng, Manager: mgr, Source: Source(seq), Corpus: corpus}, nil
}

// FleetConfig parameterizes a deterministic fleet replay.
type FleetConfig struct {
	Streams int    // concurrent streams (default 2)
	Frames  int    // frames per stream (default 240)
	Seed    uint64 // synthetic-sequence base seed (default 11)
	Train   int    // training sequences (default 2)
	// BudgetMs fixes the per-frame latency budget; 0 initializes it from
	// each stream's first processed frame (the paper's rule).
	BudgetMs float64
	// Fault, when set, injects deterministic faults on every stream. Spikes
	// never sleep: their durations accumulate into the latency the frame is
	// judged on, so the replay is wall-clock free and repeatable. Panics
	// fail the frame like the serving layer does.
	Fault *fault.Config
	// SpikeTo, when positive, gates the overlay: only spikes fired on
	// per-stream frames in [SpikeFrom, SpikeTo) count.
	SpikeFrom, SpikeTo int
}

// WithDefaults fills the zero-valued sizes and seed with their defaults.
func (c FleetConfig) WithDefaults() FleetConfig {
	if c.Streams <= 0 {
		c.Streams = 2
	}
	if c.Frames <= 0 {
		c.Frames = 240
	}
	if c.Seed == 0 {
		c.Seed = 11
	}
	if c.Train <= 0 {
		c.Train = 2
	}
	return c
}

// Fleet is a set of served streams replayed round-robin from one goroutine.
type Fleet struct {
	Config  FleetConfig // with defaults applied
	Streams []*Served

	framePixels int
	processed   []int     // per stream: frames processed so far
	overlay     []float64 // per stream: spike ms injected into the frame in flight
	spikesCount bool      // the spike gate, raised and lowered by Run
}

// FleetFrame is one served frame as Run hands it to its callback. The value
// is reused between calls.
type FleetFrame struct {
	Stream, Frame int // stream index, per-stream frame index
	// Failed marks a frame lost to a recovered task panic; the remaining
	// fields are zero for it.
	Failed   bool
	Decision sched.Decision
	Obs      core.FrameObs // the dense observation the manager was fed
	// LatencyMs is what the frame is judged on — the modeled latency plus
	// SpikeMs, the injected spike time — against BudgetMs, the stream's
	// budget once the frame was observed.
	LatencyMs, SpikeMs, BudgetMs float64
	Missed                       bool
}

// NewFleet trains the serving study and builds the streams. Wire observers
// to Fleet.Streams (boards, sinks) before Run.
func NewFleet(cfg FleetConfig) (*Fleet, error) {
	cfg = cfg.WithDefaults()
	study := ServingStudy(cfg.Train)
	fl := &Fleet{
		Config:      cfg,
		Streams:     make([]*Served, cfg.Streams),
		framePixels: study.FramePixels(),
		processed:   make([]int, cfg.Streams),
		overlay:     make([]float64, cfg.Streams),
	}
	var inj *fault.Injector
	if cfg.Fault != nil {
		var err error
		if inj, err = fault.New(*cfg.Fault); err != nil {
			return nil, err
		}
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
	for i := range fl.Streams {
		st, err := study.ServedStream(cfg.Seed, i)
		if err != nil {
			return nil, err
		}
		st.Manager.BudgetMs = cfg.BudgetMs
		if inj != nil {
			child := inj.ForStream(i)
			st.Engine.SetTaskHook(child.BeforeTask)
			st.Source = child.WrapSource(st.Source)
		}
		fl.Streams[i] = st
	}
	return fl, nil
}

// Run serves Config.Frames frames on every stream, one sched.Manager.Step
// per stream per round, and hands each frame — served or failed — to serve.
func (fl *Fleet) Run(serve func(*FleetFrame)) error {
	cfg := &fl.Config
	var fr FleetFrame
	for fi := 0; fi < cfg.Frames; fi++ {
		fl.spikesCount = cfg.SpikeTo <= 0 || (fi >= cfg.SpikeFrom && fi < cfg.SpikeTo)
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
			serve(&fr)
		}
	}
	return nil
}
