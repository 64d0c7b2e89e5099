// Package stream is the concurrent multi-stream serving layer: it runs N
// independent imaging streams — each with its own pipeline.Engine, trained
// core.Predictor and sched.Manager — over one shared host, arbitrated by a
// global controller that re-divides the modeled machine's cores across the
// streams from their per-frame Triple-C predictions and sheds load
// gracefully (serial fallback, then alternate-frame skipping) when the
// aggregate predicted demand exceeds the machine.
//
// Two resources are managed at once:
//
//   - the modeled platform's cores (the paper's 8-core Blackford): divided
//     between the streams' runtime managers by a sched.MultiManager so
//     every stream plans its striping within its current share, and
//   - the host's actual cores: a frame is processed only while it holds one
//     of HostWorkers host slots, shared by every stream, so N streams never
//     oversubscribe the machine the reproduction really runs on.
//
// Concurrency discipline: each stream is driven by exactly one goroutine
// that owns its Engine and Manager (see the Engine concurrency contract in
// internal/pipeline); goroutines communicate only through the controller,
// whose state is mutex-guarded.
package stream

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"triplec/internal/core"
	"triplec/internal/frame"
	"triplec/internal/metrics"
	"triplec/internal/parallel"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/trace"
)

// Config describes one stream to serve.
type Config struct {
	Name        string
	Engine      *pipeline.Engine
	Manager     *sched.Manager
	Source      func(int) *frame.Frame
	FramePixels int
	// BudgetMs is the per-frame latency deadline. 0 initializes it from
	// the first processed frame like the paper's runtime manager does.
	BudgetMs float64
	// Rebuild, when set, constructs a fresh Engine+Manager pair for this
	// stream after a stall (a frame exceeding ServerConfig.StallMs): the
	// stalled engine may still be executing on a leaked goroutine, so per
	// the Engine concurrency contract it can never be touched again. The
	// supervisor quarantines a stalled stream immediately when Rebuild is
	// nil. The returned manager starts untrained (or pre-trained, the
	// caller's choice); its budget is re-initialized from the crashed
	// manager automatically.
	Rebuild func() (*pipeline.Engine, *sched.Manager, error)
	// Shadow, when set, receives every processed frame's dense observation
	// for the predictor bake-off. Strictly read-only with respect to
	// scheduling: the board's backends race the deployed predictor but
	// nothing they produce flows back into planning, and the frame-path
	// cost is one mutex-guarded scoring pass with zero allocations.
	Shadow *shadow.Board
}

// ServerConfig tunes the serving layer.
type ServerConfig struct {
	// ModelCores is the modeled machine size the controller divides across
	// streams. 0 defaults to the first stream's architecture.
	ModelCores int
	// HostWorkers bounds concurrent frame processing on the host (the
	// number of host slots). 0 defaults to GOMAXPROCS. The Ps the frames in
	// flight leave idle stripe each engine's RDG and ENH (hostStripes).
	HostWorkers int
	// Mapper selects the core-division policy the arbiter applies at every
	// re-division: nil is the greedy proportional baseline (GreedyMapper);
	// internal/mapping.NewOptimizer supplies the bi-criteria Pareto
	// optimizer, which conditions the division on each stream's reported
	// cost profile. The serving loop processes frame-at-a-time, so only the
	// plans' core counts steer it; the stage structure is consumed by the
	// pipelined executor in internal/bench.
	Mapper sched.Mapper
	// RebalanceEvery is the number of per-stream demand reports between
	// controller re-divisions. 0 means the default of 4; negative values
	// are rejected by NewServer.
	RebalanceEvery int
	// SkipOver is the aggregate load ratio (predicted core need / machine
	// cores) beyond which under-allocated streams skip alternate frames.
	// 0 means the default of 2.0; negative or NaN values are rejected by
	// NewServer.
	SkipOver float64
	// WatchdogMs, when positive, is the per-frame *wall-clock* deadline: a
	// frame still executing past it is abandoned (counted, traced, and the
	// next frame admitted once the engine comes back). 0 disables the
	// watchdog. Distinct from Config.BudgetMs, which bounds the modeled
	// latency — the watchdog guards the host against stuck tasks.
	WatchdogMs float64
	// StallMs is the total wall-clock wait before an abandoned frame's
	// engine is declared stalled (likely hung forever): the serving loop
	// must wait for an abandoned frame before reusing its engine (Engine
	// concurrency contract), so only a stall breaks off — after which the
	// engine is poisoned and the supervisor must Rebuild or quarantine.
	// 0 defaults to 10x WatchdogMs; it must exceed WatchdogMs.
	StallMs float64
	// Supervise enables the restart supervisor: a stream whose serving
	// loop dies (stall, nil source frame, planning failure) is restarted
	// with capped exponential backoff instead of ending the stream, and
	// quarantined after MaxRestarts consecutive failures without progress
	// (or RestartBudget restarts in total). Quarantine retires the stream
	// from the core arbitration so healthy streams inherit its share.
	Supervise bool
	// MaxRestarts is the consecutive no-progress restart limit before
	// quarantine (default 3).
	MaxRestarts int
	// RestartBudget is the stream-lifetime restart limit (default 10).
	RestartBudget int
	// Degrade enables the per-stream degradation ladder: sustained bad
	// frames (miss, failure, abandonment) step the pipeline down
	// pipeline.Quality rungs, recovered streams step back up after the
	// cool-down (see pipeline.Degrader).
	Degrade bool
	// Metrics, when set, enables the live telemetry layer: NewServer
	// registers one per-stream instrument set (metrics.Accountant plus the
	// plan-level gauges) and the global arbiter instruments on this
	// registry, and threads them through the predictor and manager hot
	// paths and the serving loop's frame commit. Stream names label the instruments, so they must be
	// unique (empty names fall back to stream<i>). Expose the registry via
	// metrics.Handler and the per-stream summary via Server.HealthHandler.
	Metrics *metrics.Registry
	// Flight, when set, enables per-frame span tracing into the flight
	// recorder's always-on ring: frame root spans and task child spans with
	// predicted-vs-actual times, plus instants for skips, abandons, stalls,
	// restarts, quarantines, degradations and rebalances. Triggered dumps
	// (deadline miss, task panic, quarantine, prediction error) land in the
	// recorder's directory as Chrome trace-event JSON; Server.Run flushes
	// any pending dump before returning. Recording on the steady-state
	// frame path allocates nothing.
	Flight *span.FlightRecorder
	// Promote, when set, is the guarded predictor-promotion controller:
	// NewServer attaches every stream's shadow board and runtime manager to
	// it (so each stream needs Config.Shadow), the serving loop feeds it
	// every served frame's deadline outcome, and the supervisor re-wires
	// rebuilt managers through it so a mid-canary stall cannot silently
	// shed the steering. The controller's state rides along in /healthz
	// (healthReport.Promotion, per-stream Predictor) and, when Flight is
	// also set, in every dump's metadata and promote instants.
	Promote *promote.Controller
	// SLO, when set, is the frame-latency cause ledger and burn-rate
	// tracker: the serving loop classifies every processed frame's latency
	// overage into causes (compute, core-wait, scenario-miss, rebalance,
	// degrade, fault, drain) and feeds the multi-window burn-rate alerts.
	// Build it with slo.NewTracker (Config.Streams must cover the stream
	// count), expose it via Tracker.Handler at /debug/sloz; its status
	// rides along in /healthz (healthReport.SLO). The per-frame observation
	// path is allocation-free.
	SLO *slo.Tracker
	// SLOExemplars links each stream's frame-latency histogram to the
	// flight recorder: every processed frame's latency is attached as an
	// OpenMetrics exemplar carrying the frame index and, when a dump is
	// armed, the dump sequence number. Needs Metrics; Flight supplies the
	// dump linkage (without it exemplars carry the frame index only).
	SLOExemplars bool
}

// Validate checks the server's shape — machine size, rebalance cadence,
// shedding ratio, watchdog, stall limit and restart budgets — before any
// stream exists, so a command can reject a bad one before it trains.
// NewServer calls it.
func (c ServerConfig) Validate() error {
	switch {
	case c.ModelCores < 0:
		return fmt.Errorf("stream: ModelCores %d is negative; use 0 for the architecture's core count", c.ModelCores)
	case c.WatchdogMs < 0 || math.IsNaN(c.WatchdogMs):
		return fmt.Errorf("stream: WatchdogMs %v is invalid; use 0 to disable the per-frame wall-clock deadline", c.WatchdogMs)
	case c.StallMs < 0 || math.IsNaN(c.StallMs):
		return fmt.Errorf("stream: StallMs %v is invalid; use 0 for the default of 10x WatchdogMs", c.StallMs)
	case c.StallMs > 0 && c.StallMs <= c.WatchdogMs:
		return fmt.Errorf("stream: StallMs %v must exceed WatchdogMs %v (an abandoned frame is waited for before being declared stalled)", c.StallMs, c.WatchdogMs)
	case c.MaxRestarts < 0 || c.RestartBudget < 0:
		return fmt.Errorf("stream: MaxRestarts %d / RestartBudget %d must be non-negative; use 0 for the defaults", c.MaxRestarts, c.RestartBudget)
	case c.RebalanceEvery < 0:
		return fmt.Errorf("stream: RebalanceEvery %d is negative; use 0 for the default of 4 demand reports per re-division", c.RebalanceEvery)
	case c.SkipOver < 0 || math.IsNaN(c.SkipOver):
		return fmt.Errorf("stream: SkipOver %v is invalid; use 0 for the default load ratio of 2.0", c.SkipOver)
	}
	return nil
}

func (c ServerConfig) withDefaults(streams []Config) ServerConfig {
	if c.ModelCores == 0 && len(streams) > 0 {
		c.ModelCores = streams[0].Manager.Arch().NumCPUs
	}
	if c.RebalanceEvery == 0 {
		c.RebalanceEvery = 4
	}
	if c.SkipOver == 0 {
		c.SkipOver = 2.0
	}
	if c.WatchdogMs > 0 && c.StallMs == 0 {
		c.StallMs = 10 * c.WatchdogMs
	}
	if c.Supervise {
		if c.MaxRestarts == 0 {
			c.MaxRestarts = 3
		}
		if c.RestartBudget == 0 {
			c.RestartBudget = 10
		}
	}
	return c
}

// Stats summarizes one stream after a run. Every offered frame lands in
// exactly one of Processed, Skipped, Failed or Abandoned.
type Stats struct {
	Name            string
	Offered         int  // frames offered by the source
	Processed       int  // frames actually processed
	Skipped         int  // frames shed by the controller
	Failed          int  // frames lost to a recovered task panic or crash
	Abandoned       int  // frames given up past the watchdog deadline
	SerialFallbacks int  // processed frames forced to the serial mapping
	DeadlineMisses  int  // processed frames over the stream's budget
	AccountingErrs  int  // frames with incomplete bandwidth accounting
	Restarts        int  // supervisor restarts of the serving loop
	Quarantined     bool // stream retired after exhausting its restarts
	FinalQuality    pipeline.Quality
	MeanRecoveryMs  float64 // mean crash-to-serving wall-clock time
	BudgetMs        float64
	MeanLatencyMs   float64
	WorstLatencyMs  float64
	ThroughputFPS   float64 // processed frames per wall-clock second
}

// MissRate returns the deadline-miss fraction over processed frames.
func (s Stats) MissRate() float64 {
	if s.Processed == 0 {
		return 0
	}
	return float64(s.DeadlineMisses) / float64(s.Processed)
}

// Result is one stream's outcome.
type Result struct {
	Stats   Stats
	Reports []pipeline.Report // processed frames only
	// Trace holds aligned per-frame series (one row per *offered* frame):
	// latency_ms, predicted_ms, cores, missed, skipped, serial, failed,
	// abandoned.
	Trace *trace.Trace
	Err   error
}

// RunResult aggregates a full serving run.
type RunResult struct {
	Streams      []Result
	FinalBudgets []int // per-stream core budgets when the run ended
	Rebalances   int
	WallMs       float64
	AggregateFPS float64 // total processed frames per wall-clock second
}

// Server runs several streams concurrently under one global controller.
type Server struct {
	cfg     ServerConfig
	streams []Config

	// Telemetry (nil/empty unless cfg.Metrics was set).
	tels         []*telemetry
	multiMetrics *sched.MultiMetrics
}

// NewServer validates the stream set and builds a server.
func NewServer(cfg ServerConfig, streams []Config) (*Server, error) {
	if len(streams) == 0 {
		return nil, errors.New("stream: no streams to serve")
	}
	names := make(map[string]int, len(streams))
	for i, s := range streams {
		if s.Engine == nil || s.Manager == nil || s.Source == nil {
			return nil, fmt.Errorf("stream: stream %d (%q) incomplete: needs engine, manager and source", i, s.Name)
		}
		if s.FramePixels <= 0 {
			return nil, fmt.Errorf("stream: stream %d (%q) has no frame geometry", i, s.Name)
		}
		if s.BudgetMs < 0 || math.IsNaN(s.BudgetMs) || math.IsInf(s.BudgetMs, 0) {
			return nil, fmt.Errorf("stream: stream %d (%q) has invalid budget %v ms; use 0 to initialize from the first frame or a positive finite deadline", i, s.Name, s.BudgetMs)
		}
		if s.Name != "" {
			if j, dup := names[s.Name]; dup {
				return nil, fmt.Errorf("stream: duplicate stream name %q (streams %d and %d); names label metrics and health reports, so they must be unique", s.Name, j, i)
			}
			names[s.Name] = i
		}
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults(streams)
	if cfg.ModelCores < 1 {
		return nil, fmt.Errorf("stream: modeled machine needs at least one core, got %d", cfg.ModelCores)
	}
	srv := &Server{cfg: cfg, streams: streams}
	if cfg.Metrics != nil {
		srv.tels = make([]*telemetry, len(streams))
		coreAlloc := make([]*metrics.Gauge, len(streams))
		for i, sc := range streams {
			t, err := newTelemetry(cfg.Metrics, sc, i)
			if err != nil {
				return nil, err
			}
			srv.tels[i] = t
			coreAlloc[i] = t.acct.CoreBudget
		}
		rebalances, err := cfg.Metrics.NewCounter("triplec_rebalances_total",
			"Cross-stream core re-divisions applied by the arbiter.")
		if err != nil {
			return nil, err
		}
		srv.multiMetrics = &sched.MultiMetrics{Rebalances: rebalances, CoreAllocation: coreAlloc}
	}
	if cfg.Flight != nil {
		cfg.Flight.SetMeta(spanMeta(streams))
	}
	if cfg.Promote != nil {
		for i, sc := range streams {
			if sc.Shadow == nil {
				return nil, fmt.Errorf("stream: stream %d (%q) has no shadow board; guarded promotion scores challengers on the per-stream bake-off boards, so every stream needs Config.Shadow", i, sc.Name)
			}
			if err := cfg.Promote.AttachStream(streamLabel(sc, i), sc.Shadow, sc.Manager); err != nil {
				return nil, fmt.Errorf("stream: %w", err)
			}
		}
		if cfg.Flight != nil {
			// Stamp the controller's state into every dump's metadata and
			// emit promote instants into the trace ring.
			cfg.Promote.SetSpanRecorder(cfg.Flight.Recorder())
		}
	}
	if cfg.SLOExemplars {
		if srv.tels == nil {
			return nil, errors.New("stream: SLOExemplars needs ServerConfig.Metrics (exemplars attach to the frame-latency histograms)")
		}
		for _, t := range srv.tels {
			t.acct.FrameLatencyMs.EnableExemplars()
		}
	}
	return srv, nil
}

// Run serves n frames on every stream concurrently and returns the
// per-stream results. A stream that fails stops early and records its error
// in its Result; the remaining streams keep serving.
func (s *Server) Run(n int) (RunResult, error) {
	if n <= 0 {
		return RunResult{}, errors.New("stream: need at least one frame")
	}
	mm, err := sched.NewMultiManager(s.cfg.ModelCores, len(s.streams))
	if err != nil {
		return RunResult{}, err
	}
	mm.Mapper = s.cfg.Mapper
	mm.Metrics = s.multiMetrics
	if fr := s.cfg.Flight; fr != nil {
		rec := fr.Recorder()
		mm.OnRebalance = func(before, after []int) {
			p0, n := span.PackBudgets(before)
			p1, _ := span.PackBudgets(after)
			rec.Emit(span.Event{
				Kind: span.KindRebalance, Stream: -1, Frame: -1, Task: -1, Scenario: -1,
				Cores: n, Pack0: p0, Pack1: p1,
			})
		}
	}
	budgets := make([]float64, len(s.streams))
	for i, sc := range s.streams {
		budgets[i] = sc.BudgetMs
	}
	ctl := newController(mm, s.cfg.ModelCores, s.cfg.RebalanceEvery, s.cfg.SkipOver, budgets)
	procs, workers := runtime.GOMAXPROCS(0), s.cfg.HostWorkers
	if workers < 1 {
		workers = procs
	}
	h := &host{slots: make(chan struct{}, workers)}
	// An abandoned frame's goroutine may outlive its stream: wait for it.
	defer h.watched.Wait()
	stripes := hostStripes(procs, len(s.streams), workers)

	out := RunResult{Streams: make([]Result, len(s.streams))}
	start := time.Now()
	done := make(chan int, len(s.streams))
	for i := range s.streams {
		go func(si int) {
			var tel *telemetry
			if s.tels != nil {
				tel = s.tels[si]
			}
			out.Streams[si] = serveOne(si, s.streams[si], n, ctl, h, stripes, tel, s.cfg)
			done <- si
		}(i)
	}
	for range s.streams {
		<-done
	}
	wall := time.Since(start)

	out.WallMs = float64(wall.Nanoseconds()) / 1e6
	out.Rebalances = mm.Rebalances()
	out.FinalBudgets = mm.Rebalance()
	processed := 0
	var errs []error
	for i := range out.Streams {
		r := &out.Streams[i]
		processed += r.Stats.Processed
		r.Stats.ThroughputFPS = throughputFPS(r.Stats.Processed, wall)
		if r.Err != nil {
			errs = append(errs, fmt.Errorf("stream %q: %w", r.Stats.Name, r.Err))
		}
	}
	out.AggregateFPS = throughputFPS(processed, wall)
	// A dump armed near the end of the run (or by a quarantine with no more
	// frames coming) would otherwise wait forever for its after-window.
	if err := s.cfg.Flight.Flush(); err != nil {
		errs = append(errs, fmt.Errorf("flight recorder: %w", err))
	}
	return out, errors.Join(errs...)
}

// hostStripes is how many host stripes each engine's RDG and ENH run over:
// at most min(streams, workers) frames are in flight at once (workers < 1
// being the default of procs), and the procs Ps are shared out among them.
func hostStripes(procs, streams, workers int) int {
	if workers < 1 {
		workers = procs
	}
	return max(1, procs/min(streams, workers))
}

// host is the server's share of the host: a counting semaphore of
// HostWorkers slots that every frame holds while it is processed, and the
// watched frames' goroutines, which Run waits for.
type host struct {
	slots   chan struct{}
	watched sync.WaitGroup
}

// process runs one frame on eng once a host slot is free, on the calling
// goroutine. A panic that escapes Process returns as a *parallel.PanicError.
func (h *host) process(eng *pipeline.Engine, f *frame.Frame, m partition.Mapping) (rep pipeline.Report, err error) {
	h.slots <- struct{}{}
	defer func() {
		<-h.slots
		if v := recover(); v != nil {
			err = parallel.AsPanicError(v)
		}
	}()
	return eng.Process(f, m)
}

// throughputFPS divides processed frames by the wall-clock duration,
// returning an explicit 0 for zero-duration (or clock-skewed negative) runs
// so downstream consumers — Stats, /healthz JSON — never see NaN or Inf.
func throughputFPS(processed int, wall time.Duration) float64 {
	if processed <= 0 || wall <= 0 {
		return 0
	}
	return float64(processed) / wall.Seconds()
}

// runner is one stream's serving state: the loop body in serveFrames and
// the restart supervisor in supervisor.go both operate on it. It lives on
// the stream's serving goroutine only.
type runner struct {
	si   int
	sc   Config
	n    int
	ctl  *controller
	host *host
	tel  *telemetry
	cfg  ServerConfig

	// stripes are the engine's host stripes; a rebuilt engine gets new ones.
	stripes *parallel.HostStripes

	eng *pipeline.Engine
	mgr *sched.Manager
	deg *pipeline.Degrader

	// Span tracing (nil when ServerConfig.Flight is unset). fb is replaced
	// together with the engine after a stall — see span.go.
	fr *span.FlightRecorder
	fb *span.FrameBuilder

	res        Result
	latencySum float64

	// out is the record of the frame being served, reset when it is offered
	// and resolved by commit.
	out outcome

	// obs is the one dense observation of the frame being committed, filled
	// from its report and fed to both the manager and the shadow board.
	obs core.Observation

	// SLO cause-ledger state (used only when cfg.SLO is set). sloIn is the
	// reusable classification input; pendingFault marks the next processed
	// frame as a fault-recovery frame. lastRebalances detects arbiter
	// re-divisions between this stream's frames.
	sloIn          slo.FrameInput
	pendingFault   bool
	lastRebalances int
}

// Frame outcome kinds, numbered like span.Outcome* so a frame root takes the
// kind as is. A skipped frame never enters the pipeline and has no root.
const (
	outProcessed = span.OutcomeProcessed
	outFailed    = span.OutcomeFailed
	outAbandoned = span.OutcomeAbandoned
	outSkipped   = span.OutcomeAbandoned + 1
)

// outcome is one offered frame's record: the runner fills it as the frame
// moves through admission, planning and processing, and commit hands it to
// every observer. The prediction, latency, scenario and the last three flags
// are set on processed frames only.
type outcome struct {
	frame, kind int
	mode        Mode
	cores       int
	serial      bool
	panicked    bool // failed by a recovered task panic, not a loop crash
	scenario    int  // executed scenario index, -1 unless processed
	quality     int  // the rung the frame was offered at
	predictedMs float64
	latencyMs   float64
	missed      bool
	acctErr     bool
	scenMiss    bool // the state table mispredicted this frame's scenario
}

// serveOne is the per-stream goroutine body: admission, planning,
// processing in a host slot, observation, demand reporting — wrapped by
// the watchdog and, when enabled, the restart supervisor. tel may be nil
// (telemetry disabled); its event methods are nil-safe.
func serveOne(si int, sc Config, n int, ctl *controller, h *host, stripes int, tel *telemetry, cfg ServerConfig) Result {
	r := &runner{
		si: si, sc: sc, n: n, ctl: ctl, host: h, tel: tel, cfg: cfg,
		stripes: parallel.NewHostStripes(stripes),
		eng:     sc.Engine, mgr: sc.Manager,
		res: Result{
			Stats:   Stats{Name: sc.Name, BudgetMs: sc.BudgetMs},
			Reports: make([]pipeline.Report, 0, n),
		},
	}
	defer func() { r.stripes.Close() }()
	r.eng.SetHostStripes(r.stripes)
	tel.serving()
	defer func() {
		if r.res.Stats.Quarantined {
			tel.quarantined(r.res.Err)
		} else {
			tel.finished(r.res.Err)
		}
	}()
	tr := trace.New()
	for _, col := range []string{"latency_ms", "predicted_ms", "cores", "missed", "skipped", "serial", "failed", "abandoned"} {
		if err := tr.AddEmpty(col); err != nil {
			r.res.Err = err
			return r.res
		}
	}
	tr.Grow(n)
	r.res.Trace = tr

	if cfg.Degrade {
		r.deg = pipeline.NewDegrader()
	}
	if sc.BudgetMs > 0 {
		r.mgr.BudgetMs = sc.BudgetMs
	}
	r.attachObservers()
	if cfg.Supervise {
		r.supervised()
	} else {
		_, _, r.res.Err = r.serveFrames(0)
	}
	if r.res.Stats.Processed > 0 {
		r.res.Stats.MeanLatencyMs = r.latencySum / float64(r.res.Stats.Processed)
	}
	r.res.Stats.BudgetMs = r.mgr.BudgetMs
	r.res.Stats.FinalQuality = r.deg.Level()
	return r.res
}

// runProcess executes one frame in a host slot, watched. Without a watchdog
// it is a plain call on the serving goroutine. A frame late past
// WatchdogMs is marked abandoned in the record but still *waited for* (up to
// StallMs), because the engine must never be entered by two goroutines
// (Engine concurrency contract); only a stall breaks off with an error,
// leaving the engine unusable.
func (r *runner) runProcess(f *frame.Frame, m partition.Mapping) (pipeline.Report, error) {
	if r.cfg.WatchdogMs <= 0 {
		return r.host.process(r.eng, f, m)
	}
	// Bind the engine now: after a stall the supervisor swaps r.eng for a
	// rebuilt one, and this goroutine (possibly still waiting for a slot)
	// must keep pointing at the poisoned engine, never the replacement. The
	// results live in locals the caller never sees until done closes — on a
	// stall this function returns while the leaked goroutine still runs.
	eng, h := r.eng, r.host
	var (
		lateRep pipeline.Report
		lateErr error
	)
	done := make(chan struct{})
	h.watched.Add(1)
	go func() {
		defer h.watched.Done()
		defer close(done)
		lateRep, lateErr = h.process(eng, f, m)
	}()
	watchdog := time.NewTimer(time.Duration(r.cfg.WatchdogMs * float64(time.Millisecond)))
	defer watchdog.Stop()
	select {
	case <-done:
		return lateRep, lateErr
	case <-watchdog.C:
	}
	// Past the wall-clock deadline: the frame is lost either way; wait for
	// the engine up to the stall bound.
	r.out.kind = outAbandoned
	stall := time.NewTimer(time.Duration((r.cfg.StallMs - r.cfg.WatchdogMs) * float64(time.Millisecond)))
	defer stall.Stop()
	select {
	case <-done:
		return pipeline.Report{}, nil
	case <-stall.C:
		r.spanStall(r.out.frame)
		return pipeline.Report{}, fmt.Errorf("frame %d: stalled past %v ms wall clock; engine unusable", r.out.frame, r.cfg.StallMs)
	}
}

// serveFrames serves frames [start, n) on the runner's current engine. On a
// fatal error it returns the index of the frame that killed the loop and
// whether the engine stalled (poisoned); that frame is resolved like any
// other — failed, or abandoned after a stall — so the supervisor only has to
// resume past it. err == nil means the stream completed.
func (r *runner) serveFrames(start int) (failedAt int, stalled bool, err error) {
	for i := start; i < r.n; i++ {
		if err := r.serveFrame(i); err != nil {
			stalled = r.out.kind == outAbandoned
			if !stalled {
				r.out.kind = outFailed
			}
			r.commit()
			return i, stalled, err
		}
	}
	return r.n, false, nil
}

// serveFrame offers frame i and resolves it through commit, or returns the
// error that kills the serving loop with the frame still open.
func (r *runner) serveFrame(i int) error {
	sc, res, o := r.sc, &r.res, &r.out
	res.Stats.Offered++
	r.tel.offered(i)
	*o = outcome{frame: i, kind: outProcessed, scenario: -1, quality: int(r.deg.Level())}
	if r.deg != nil {
		r.eng.SetQuality(r.deg.Level())
	}
	d := r.ctl.directive(r.si, i)
	o.mode = d.Mode
	if d.Mode == ModeSkip {
		o.kind = outSkipped
		r.commit()
		return nil
	}
	o.cores = d.Cores
	if err := r.mgr.SetCoreBudget(clamp(d.Cores, 1, r.mgr.Arch().NumCPUs)); err != nil {
		return err
	}
	var dec sched.Decision
	if res.Stats.Processed == 0 {
		// Initialization frame: serial, like the paper's manager.
		dec = sched.Decision{Mapping: partition.Serial()}
	} else {
		dec = r.mgr.Plan()
	}
	if d.Mode == ModeSerial || r.deg.Level().ForceSerial() {
		dec.Mapping = partition.Serial()
		o.serial = true
	}
	f := sc.Source(i)
	if f == nil {
		return fmt.Errorf("frame %d: source returned nil frame", i)
	}
	rep, err := r.runProcess(f, dec.Mapping)
	if o.kind == outAbandoned && err != nil {
		return err // stalled: the engine is poisoned
	}
	if err != nil {
		var te *pipeline.TaskError
		if !errors.As(err, &te) {
			return fmt.Errorf("frame %d: %w", i, err)
		}
		// A recovered task panic fails the frame, not the stream.
		o.kind, o.panicked = outFailed, true
	}
	if o.kind != outProcessed {
		r.commit()
		return nil
	}
	if res.Stats.Processed == 0 && r.mgr.BudgetMs <= 0 {
		r.mgr.InitBudget(rep.LatencyMs)
		res.Stats.BudgetMs = r.mgr.BudgetMs
		r.ctl.setBudgetMs(r.si, r.mgr.BudgetMs)
	}
	core.DenseFromReport(&rep, sc.FramePixels, &r.obs)
	r.mgr.Observe(r.obs)
	if sc.Shadow != nil {
		sc.Shadow.ObserveFrame(&r.obs)
	}
	res.Reports = append(res.Reports, rep)
	o.scenario, o.predictedMs, o.latencyMs = rep.Scenario.Index(), dec.PredictedMs, rep.LatencyMs
	o.missed = r.mgr.BudgetMs > 0 && rep.LatencyMs > r.mgr.BudgetMs
	o.acctErr = len(rep.AccountingErrs) > 0
	r.commit()

	// Feed the arbiter the Triple-C demand for the scenario the stream
	// is currently in (see Manager.PredictedDemandMs): unlike Plan's
	// pessimistic SerialMs — which covers the scenario table's worst
	// successor and so never drops for a stream stuck in a cheap
	// degenerate mode — this signal adapts online per task and lets the
	// controller shift cores between unequal streams.
	demand := r.mgr.PredictedDemandMs()
	if demand <= 0 {
		demand = rep.LatencyMs
	}
	r.tel.demand(demand)
	// The full demand signal: scalar prediction plus this frame's
	// scenario-conditioned costs (a single-frame profile the arbiter
	// EWMA-folds into the stream's running profile). Stack-allocated —
	// the steady-state reporting path stays heap-free.
	sd := sched.StreamDemand{
		TotalMs:  demand,
		BudgetMs: r.mgr.BudgetMs,
		FrameKB:  sc.FramePixels * frame.BytesPerPixel / 1024,
	}
	sd.Profile.Add(rep)
	r.ctl.report(r.si, &sd)
	return nil
}

// commit resolves the offered frame in r.out through every observer, in one
// fixed order: Stats, promotion, degrader, span / flight recorder, SLO
// ledger, telemetry, then the trace row as a projection of the record.
func (r *runner) commit() {
	o, st := &r.out, &r.res.Stats
	if o.serial {
		st.SerialFallbacks++
	}
	switch o.kind {
	case outProcessed:
		st.Processed++
		r.latencySum += o.latencyMs
		st.WorstLatencyMs = max(st.WorstLatencyMs, o.latencyMs)
		if o.missed {
			st.DeadlineMisses++
		}
		if o.acctErr {
			st.AccountingErrs++
		}
		if r.cfg.Promote != nil {
			r.cfg.Promote.ObserveServed(r.si, o.missed)
		}
	case outSkipped:
		st.Skipped++
	case outFailed:
		st.Failed++
	case outAbandoned:
		st.Abandoned++
	}
	if o.kind != outSkipped {
		prev := r.deg.Level()
		if r.deg.Observe(o.kind == outProcessed && !o.missed) {
			r.tel.qualityChanged(r.deg.Level())
			r.spanDegrade(prev, r.deg.Level())
		}
	}
	r.spanFrame(o)
	if o.kind == outProcessed {
		r.observeSLO(o)
	} else if o.kind != outSkipped {
		// The next processed frame is a fault-recovery frame: the cause
		// ledger charges its overage to recovery, not to scheduling.
		r.pendingFault = true
	}
	r.tel.commit(o, &r.obs)
	// Eight values for the trace's eight columns: Append cannot fail.
	_ = r.res.Trace.Append(o.latencyMs, o.predictedMs, float64(o.cores), b2f(o.missed),
		b2f(o.kind == outSkipped), b2f(o.serial), b2f(o.kind == outFailed), b2f(o.kind == outAbandoned))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func clamp(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}

// MergedTrace exports every stream's per-frame series side by side, one
// column group per stream, prefixed with the stream name (or stream<i> when
// unnamed).
func (r RunResult) MergedTrace() (*trace.Trace, error) {
	prefixes := make([]string, len(r.Streams))
	traces := make([]*trace.Trace, len(r.Streams))
	for i, s := range r.Streams {
		name := s.Stats.Name
		if name == "" {
			name = fmt.Sprintf("stream%d", i)
		}
		prefixes[i] = name
		traces[i] = s.Trace
	}
	return trace.Merge(prefixes, traces)
}
