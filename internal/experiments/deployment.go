package experiments

import (
	"errors"
	"fmt"
	"io"
	"math"

	"triplec/internal/core"
	"triplec/internal/fault"
	"triplec/internal/frame"
	"triplec/internal/mapping"
	"triplec/internal/metrics"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/tasks"
)

// This file is the one recipe for the served system: a served stream, and
// the streams plus every optional layer built from one Deployment value.
// `triplec serve` and `chaos` fill a Deployment, Build it and assemble the
// result into a stream.Server; the promote / slo drills Build the same
// value and replay it on the Fleet. The examples and the stream tests take
// single streams from ServedStream.

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
//
// A stream of a Built deployment also carries its name, its shadow board,
// its fault hook and breaker gate (already on Engine, Source wrapped by the
// injector), and Rebuild, which builds a fresh engine and manager around
// the same predictor and puts the hook and gate back on: what the
// supervisor calls after a stall. Each is nil when its layer is off.
type Served struct {
	Name    string
	Engine  *pipeline.Engine
	Manager *sched.Manager
	Source  func(int) *frame.Frame
	Corpus  [][]core.Observation
	Board   *shadow.Board
	Hook    func(tasks.Name, int)
	Gate    *fault.Breaker
	Rebuild func() (*pipeline.Engine, *sched.Manager, error)
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

// wire puts the stream's fault hook and breaker gate on eng.
func (st *Served) wire(eng *pipeline.Engine) {
	if st.Hook != nil {
		eng.SetTaskHook(st.Hook)
	}
	if st.Gate != nil {
		eng.SetGate(st.Gate)
	}
}

// Deployment is one served system as a plain value: the study and the run,
// the server's shape, and one field per optional layer. A layer's zero
// value leaves it off.
type Deployment struct {
	Train   int    // training sequences of the serving study
	Streams int    // concurrent streams
	Frames  int    // frames per stream
	Seed    uint64 // base synthetic-sequence seed
	// Mapper is the core-division policy: "greedy" (or "") or "optimizer"
	// (the Pareto bi-criteria mapper).
	Mapper string
	// BudgetMs fixes the per-frame latency budget; 0 initializes it from
	// each stream's first processed frame (the paper's rule).
	BudgetMs float64

	// The server's shape (stream.ServerConfig); 0 takes the server's
	// default, except Workers under supervision: Streams+2, because a
	// stalled frame holds a host slot.
	Cores, Workers, RebalanceEvery int
	SkipOver                       float64

	// Shadow races the alternative prediction backends on a board per
	// stream, with no influence on scheduling.
	Shadow bool
	// Predictor is the promotion policy: "" or "baseline" (none), "auto"
	// (whichever shadow backend beats the baseline), "miscal" (a
	// deliberately miscalibrated challenger joins every roster: the
	// forced-rollback drill) or a shadow backend name. Any other policy
	// than the baseline implies Shadow.
	Predictor string
	// Promote tunes the promotion controller; Build sets its Challenger
	// from Predictor.
	Promote promote.Config
	// SLO, when set, tracks the frame-latency cause ledger and burn rates
	// (Build sets its Streams). SLOExemplars attaches OpenMetrics exemplars
	// to the latency histograms; it implies SLO and needs Metrics.
	SLO          *slo.Config
	SLOExemplars bool
	// TraceDir, when set, arms the span flight recorder, which dumps into
	// it; TraceRelErr is its prediction relative-error trigger (0 disables).
	TraceDir    string
	TraceRelErr float64
	// Metrics builds a registry holding the runtime, shadow, SLO and
	// promotion families of the layers that are on.
	Metrics bool
	// Fault, when set, is the fault plan injected on the first Faulted
	// streams; Breaker gates their optional tasks behind per-task circuit
	// breakers.
	Fault   *fault.Config
	Faulted int
	Breaker bool
	// Supervise restarts a crashed stream, quarantining it after
	// MaxRestarts restarts without progress or RestartBudget in all; a frame
	// running past WatchdogMs of wall clock is abandoned and one past StallMs
	// poisons the engine, which is rebuilt. Degrade steps a struggling
	// stream down the quality ladder. 0 limits take the server's defaults.
	Supervise, Degrade         bool
	WatchdogMs, StallMs        float64
	MaxRestarts, RestartBudget int
}

// validate rejects a deployment that cannot run, before anything trains.
func (d Deployment) validate() error {
	switch {
	case d.Train < 1:
		return fmt.Errorf("need at least one training sequence, got %d", d.Train)
	case d.Streams < 1:
		return fmt.Errorf("need at least one stream, got %d", d.Streams)
	case d.Frames < 1:
		return fmt.Errorf("need at least one frame per stream, got %d", d.Frames)
	case !(d.BudgetMs >= 0) || math.IsInf(d.BudgetMs, 1):
		return fmt.Errorf("budget %v ms must be finite and non-negative", d.BudgetMs)
	case d.Mapper != "" && d.Mapper != "greedy" && d.Mapper != "optimizer":
		return fmt.Errorf("unknown mapper %q (want greedy or optimizer)", d.Mapper)
	case d.Faulted < 0 || d.Faulted > d.Streams:
		return fmt.Errorf("faulted streams %d outside [0, %d]", d.Faulted, d.Streams)
	case d.Faulted > 0 && d.Fault == nil:
		return fmt.Errorf("%d faulted streams but no fault plan", d.Faulted)
	case d.SLOExemplars && !d.Metrics:
		return errors.New("SLO exemplars need the metrics registry")
	case d.Fault != nil:
		return d.Fault.Validate()
	}
	return nil
}

// policy is the promotion policy Predictor names, "" for the baseline.
func (d Deployment) policy() string {
	if d.Predictor == core.BackendBaseline || d.Predictor == "baseline" {
		return ""
	}
	return d.Predictor
}

// Built is a deployment with its streams trained and its layers
// constructed. Each handle is nil exactly when its layer is off.
type Built struct {
	Deployment Deployment // as built: implied layers on, defaults filled
	Study      Study
	Streams    []*Served
	Mapper     sched.Mapper // nil: the greedy division
	Controller *promote.Controller
	Tracker    *slo.Tracker
	Injector   *fault.Injector
	Flight     *span.FlightRecorder
	Registry   *metrics.Registry
}

// Build validates d, constructs its layers, announces the training on w
// (nil: quietly) and builds every stream. The promotion controller is
// attached to the streams by whatever serves them (stream.NewServer, or
// NewFleet).
func (d Deployment) Build(w io.Writer) (*Built, error) {
	if err := d.validate(); err != nil {
		return nil, err
	}
	d.Predictor = d.policy()
	d.Shadow = d.Shadow || d.Predictor != ""
	if d.SLOExemplars && d.SLO == nil {
		d.SLO = &slo.Config{}
	}
	if d.Supervise && d.Workers == 0 {
		d.Workers = d.Streams + 2
	}
	b := &Built{Deployment: d, Study: ServingStudy(d.Train)}
	var err error
	if d.Mapper == "optimizer" {
		if b.Mapper, err = mapping.NewOptimizer(b.Study.Arch); err != nil {
			return nil, err
		}
	}
	if d.Fault != nil {
		if b.Injector, err = fault.New(*d.Fault); err != nil {
			return nil, err
		}
	}
	if d.TraceDir != "" {
		trig := span.DefaultTriggers()
		trig.RelErr = d.TraceRelErr
		if b.Flight, err = span.NewFlightRecorder(d.TraceDir, trig); err != nil {
			return nil, err
		}
		if b.Injector != nil {
			// A dump shows the fault that ruined the frame it holds.
			rec := b.Flight.Recorder()
			b.Injector.SetOnFault(func(si int, task tasks.Name, frameIdx int, kind fault.Kind) {
				rec.Emit(span.Event{
					Kind: span.KindFault, Stream: int32(si), Frame: int32(frameIdx),
					Task: int32(tasks.IndexOf(task)), Scenario: -1, Arg0: float64(kind),
				})
			})
		}
	}
	if d.Predictor != "" {
		pcfg := d.Promote
		pcfg.Challenger = d.Predictor
		if d.Predictor == "miscal" {
			pcfg.Challenger = shadow.BackendMiscal
		}
		if b.Controller, err = promote.NewController(pcfg); err != nil {
			return nil, err
		}
	}
	if d.Metrics {
		b.Registry = metrics.NewRegistry()
		if _, err := metrics.NewRuntimeMetrics(b.Registry); err != nil {
			return nil, err
		}
	}
	if w != nil {
		fmt.Fprintf(w, "training Triple-C on %d sequences x %d frames...\n", b.Study.TrainSeqs, b.Study.TrainFrames)
	}
	names := make([]string, d.Streams)
	for i := range names {
		st, err := b.stream(i)
		if err != nil {
			return nil, err
		}
		b.Streams = append(b.Streams, st)
		names[i] = st.Name
	}
	if d.SLO != nil {
		cfg := *d.SLO
		cfg.Streams = d.Streams
		b.Tracker = slo.NewTracker(cfg)
		if err := b.Tracker.EnableMetrics(b.Registry, names); err != nil {
			return nil, err
		}
	}
	return b, nil
}

// stream builds served stream i with its layers. With a fault plan the
// streams are named faultedN / healthyN, else streamN.
func (b *Built) stream(i int) (*Served, error) {
	d := &b.Deployment
	st, err := b.Study.ServedStream(d.Seed, i)
	if err != nil {
		return nil, err
	}
	st.Manager.BudgetMs = d.BudgetMs
	st.Name = fmt.Sprintf("stream%d", i)
	if b.Injector != nil {
		st.Name = fmt.Sprintf("healthy%d", i-d.Faulted)
	}
	if i < d.Faulted {
		st.Name = fmt.Sprintf("faulted%d", i)
		st.Hook = b.Injector.ForStream(i).BeforeTask
		st.Source = b.Injector.ForStream(i).WrapSource(st.Source)
		if d.Breaker {
			st.Gate = fault.NewBreaker()
			if b.Flight != nil {
				rec := b.Flight.Recorder()
				st.Gate.OnTrip = func(task tasks.Name) {
					rec.Emit(span.Event{
						Kind: span.KindBreakerTrip, Stream: int32(i), Frame: -1,
						Task: int32(tasks.IndexOf(task)), Scenario: -1,
					})
				}
			}
		}
	}
	st.wire(st.Engine)
	p := st.Manager.Predictor()
	st.Rebuild = func() (*pipeline.Engine, *sched.Manager, error) {
		eng, mgr, err := b.Study.ManagedEngine(p)
		if err == nil {
			st.wire(eng)
		}
		return eng, mgr, err
	}
	if d.Shadow {
		if st.Board, err = shadow.NewStreamBoard(st.Name, p, st.Corpus, d.Predictor == "miscal"); err != nil {
			return nil, err
		}
		if b.Registry != nil {
			if err := st.Board.EnableMetrics(b.Registry); err != nil {
				return nil, err
			}
		}
	}
	return st, nil
}
