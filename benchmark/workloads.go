package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/mapping"
	"triplec/internal/metrics"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/stream"
)

// workload is one named input set. Frame counts are fixed per repetition,
// never time-based, so two commits do identical work in a repetition; the
// time budget only decides how many repetitions are taken.
type workload struct {
	name    string
	why     string
	size    int // square frame edge in pixels
	streams int
	k       int // pre-generated frames per stream, served in ping-pong order
	frames  int // frames per stream per repetition
	// trainSeqs x trainFrames is the predictor's training corpus, profiled at
	// the workload's frame size in every set-up.
	trainSeqs, trainFrames int
	full                   bool // every optional layer on, Pareto optimizer, RebalanceEvery=1
	scraped                bool // a 50 Hz reader scrapes the status surfaces beside the run
	// procs is GOMAXPROCS while the workload runs; 0 leaves the runtime's own.
	procs int
}

// The four workloads. Streams never exceed the sandbox's two cores: with
// more closed-loop clients than cores the tail measures the Go scheduler's
// timeslice, not the program (see README.md). k is a multiple of the
// generator's 50-frame contrast cycle, so every store holds whole cycles.
//
// The two 32x32 workloads serve one stream on one P. A 50 us frame is two
// goroutine hand-offs (stream -> pool worker -> stream) around 10 us of
// kernels; spread over two Ps those hand-offs are cross-thread wake-ups, and
// with two streams the arbiter's lock is contended besides. On this shared
// two-vCPU host that measured the hypervisor: while a neighbour was busy
// frames_per_s of the two-stream, two-P shape fell 38% where the shape below
// lost 10%, and sets of ten runs spread by 16-25% against 3-4%.
var workloads = []workload{
	{
		// Trained on 2x40 frames, not 4x60: at 512x512 the larger corpus costs
		// 5.6 s per set-up, twice the repetition it precedes.
		name: "kernel-512x1", size: 512, streams: 1, k: 100, frames: 300, trainSeqs: 2, trainFrames: 40,
		why: "one 512x512 stream, bare server: Engine.Process is >=98% of a frame, so only kernel/task/pipeline work moves it",
	},
	{
		name: "serve-128x2", size: 128, streams: 2, k: 400, frames: 2000, trainSeqs: 4, trainFrames: 60,
		why: "the default `triplec serve` shape (2 streams of 128x128, bare, greedy): the representative regression guard",
	},
	{
		name: "control-32x1", size: 32, streams: 1, k: 400, frames: 20000, trainSeqs: 4, trainFrames: 60, full: true, procs: 1,
		why: "one 32x32 thumbnail stream on one P, every optional layer on: kernels nearly vanish, so plan/rebalance/commit observers are the frame",
	},
	{
		name: "scraped-32x1", size: 32, streams: 1, k: 400, frames: 20000, trainSeqs: 4, trainFrames: 60, full: true, scraped: true, procs: 1,
		why: "control-32x1 beside a 50 Hz status scraper on the same P: status reads of the registries and locks the commit path writes",
	},
}

// fullBudgetMs is the deadline the fully-observed 32x32 workloads serve
// under (`triplec serve -budget-ms`): one frame period at the modeled 30 Hz.
// The bare workloads keep the default, a budget taken from the stream's first
// frame; on a 32x32 thumbnail noise alone decides whether that frame is a
// cheap or an expensive one, and the run's deadline hit rate then reads 0 or
// 1 — and its plans, allocations and modeled latencies differ to match —
// from one seed to the next.
const fullBudgetMs = 1000.0 / 30

// gomaxprocs is the number of Ps the workload runs on.
func (w workload) gomaxprocs() int {
	if w.procs > 0 {
		return w.procs
	}
	return runtime.GOMAXPROCS(0)
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// miniature shrinks a workload to a few 32x32 frames and a small training
// corpus with its configuration intact — the shape the package test runs.
func (w workload) miniature() workload {
	w.size, w.k, w.frames = 32, 20, 40
	w.trainSeqs, w.trainFrames = 2, 30
	return w
}

func (w workload) study() experiments.Study {
	s := experiments.DefaultStudy()
	s.FrameW, s.FrameH = w.size, w.size
	s.Spacing = 36 * float64(w.size) / 128
	s.TrainSeqs, s.TrainFrames = w.trainSeqs, w.trainFrames
	return s
}

// pingPong maps the i-th served frame onto k stored frames in the order
// 0..k-1..0, so the scene's motion stays continuous when the store wraps.
func pingPong(i, k int) int {
	if k < 2 {
		return 0
	}
	j := i % (2*k - 2)
	if j >= k {
		j = 2*k - 2 - j
	}
	return j
}

// sceneSeed fixes the scenes: stream s always films synth sequence
// sceneSeed+s*1013, and the benchmark's -seed picks which window of that
// endless sequence is served. A seed that picked the scene itself would pick
// the vessel layout, and with it how often marker tracking locks — between
// seeds that moved bytes_per_frame by 15% and the modeled latencies by up to
// 60%, which no bound could tell from a regression.
const sceneSeed = 11

// windowStride is one full super-period of the synth generator: the least
// common multiple of its contrast (50), dropout (23), cardiac (20), breathing
// (90), marker drift (657, 819), wire angle (450) and vessel modulation (160)
// periods, 2^5*3^2*5^2*7*13*23*73 frames. Windows a whole number of strides
// apart show the same anatomy in the same motion, opening like frame 0 on a
// contrast burst, and differ only in what the generator draws per frame
// index: noise and clutter. So every seed is a fresh take of one scene —
// statistically alike, which makes runs on different seeds comparable — and
// the first frame, from which the server sets a stream's latency budget (and
// with it the plans of the whole run), is the same kind of frame each time.
const windowStride = 1_100_080_800

// windowStart spreads consecutive seeds over far-apart windows.
func windowStart(seed uint64, s int) int {
	return windowStride * int((seed+uint64(s)*1013)*7919%101)
}

// inputs are a workload's pre-generated frames and the reference digests
// they must produce. The program under test receives frames, never the seed.
type inputs struct {
	frames   [][]*frame.Frame // [stream][k]
	digests  []uint64         // [stream] reference digest over one repetition
	genUsPer float64          // synth cost per generated frame (load generator, not serving)
}

// makeInputs renders each stream's k-frame window and pushes one
// repetition's worth of it through a fresh engine with the serial mapping
// to obtain the reference digest. synth.Sequence.Frame costs more than
// Engine.Process, which is why none of this may happen inside a repetition.
func makeInputs(w workload, seed uint64) (*inputs, error) {
	study := w.study()
	in := &inputs{frames: make([][]*frame.Frame, w.streams), digests: make([]uint64, w.streams)}
	start := time.Now()
	for s := range in.frames {
		seq, err := study.Sequence(sceneSeed + uint64(s)*1013)
		if err != nil {
			return nil, err
		}
		first := windowStart(seed, s)
		in.frames[s] = make([]*frame.Frame, w.k)
		for i := range in.frames[s] {
			in.frames[s][i], _ = seq.Frame(first + i)
		}
	}
	in.genUsPer = float64(time.Since(start).Microseconds()) / float64(w.streams*w.k)

	errs := make([]error, w.streams)
	var wg sync.WaitGroup
	for s := range in.frames {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			eng, err := study.Engine()
			if err != nil {
				errs[s] = err
				return
			}
			store := in.frames[s]
			reps, err := eng.RunSequence(w.frames, func(i int) *frame.Frame { return store[pingPong(i, len(store))] }, partition.Serial())
			if err != nil {
				errs[s] = err
				return
			}
			in.digests[s] = digestReports(reps)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference run: %w", err)
		}
	}
	return in, nil
}

// digestReports folds every report's output pixels, scenario, couple and
// ROI into one order-sensitive FNV-1a value.
func digestReports(reps []pipeline.Report) uint64 {
	h := uint64(14695981039346656037)
	mix := func(v uint64) {
		h ^= v
		h *= 1099511628211
	}
	for i := range reps {
		r := &reps[i]
		mix(uint64(r.Scenario.Index()))
		if r.Couple == nil {
			mix(0xdead)
		} else {
			for _, v := range [...]float64{r.Couple.A.X, r.Couple.A.Y, r.Couple.B.X, r.Couple.B.Y} {
				mix(math.Float64bits(v))
			}
		}
		for _, v := range [...]int{r.ROI.X0, r.ROI.Y0, r.ROI.X1, r.ROI.Y1} {
			mix(uint64(int64(v)))
		}
		if r.Output == nil {
			mix(0xbeef)
			continue
		}
		for y := 0; y < r.Output.Height(); y++ {
			for _, px := range r.Output.Row(r.Output.Bounds.Y0 + y) {
				mix(uint64(px))
			}
		}
	}
	return h
}

// system is one freshly built serving stack plus the handles the scraper
// and the replay need.
type system struct {
	srv      *stream.Server
	study    experiments.Study
	sets     [][]core.Observation // training corpus (reused by the replay)
	trained  *core.Predictor      // pristine trained predictor; Clone before use
	engines  []*pipeline.Engine
	reg      *metrics.Registry
	tracker  *slo.Tracker
	boards   []*shadow.Board
	ctl      *promote.Controller
	flight   *span.FlightRecorder
	flightAt string // temp dir for flight dumps, removed by close
}

func (sys *system) close() {
	if sys.flightAt != "" {
		_ = os.RemoveAll(sys.flightAt) // scratch dumps; nothing reads them after the run
	}
}

// buildSystem trains and wires the stack the way `triplec serve` does, with
// sources[s] as stream s's frame source. Everything in here is set-up time.
func buildSystem(w workload, sources []func(int) *frame.Frame, outDir string) (*system, error) {
	sys := &system{study: w.study()}
	if err := sys.build(w, sources, outDir); err != nil {
		sys.close()
		return nil, err
	}
	return sys, nil
}

func (sys *system) build(w workload, sources []func(int) *frame.Frame, outDir string) error {
	study := sys.study
	var err error
	if sys.sets, err = study.TrainingSets(); err != nil {
		return err
	}
	// study.TrainPredictor would answer every repetition after the first
	// from its process-wide cache; train here so each set-up pays in full.
	if sys.trained, err = core.Train(sys.sets, core.TrainConfig{}); err != nil {
		return err
	}
	sys.trained.ResetOnline()

	cfgs := make([]stream.Config, w.streams)
	names := make([]string, w.streams)
	for i := range cfgs {
		p, err := sys.trained.Clone()
		if err != nil {
			return err
		}
		mgr, err := sched.NewManager(p, study.Arch)
		if err != nil {
			return err
		}
		mgr.Sticky = true
		eng, err := study.Engine()
		if err != nil {
			return err
		}
		sys.engines = append(sys.engines, eng)
		names[i] = fmt.Sprintf("stream%d", i)
		cfgs[i] = stream.Config{
			Name: names[i], Engine: eng, Manager: mgr,
			Source: sources[i], FramePixels: study.FramePixels(),
		}
		if w.full {
			cfgs[i].BudgetMs = fullBudgetMs
			backends, err := shadow.TrainBackends(p, sys.sets, core.TrainConfig{})
			if err != nil {
				return err
			}
			board, err := shadow.NewBoard(names[i], backends)
			if err != nil {
				return err
			}
			sys.boards = append(sys.boards, board)
			cfgs[i].Shadow = board
		}
	}

	scfg := stream.ServerConfig{HostWorkers: w.streams}
	if w.full {
		opt, err := mapping.NewOptimizer(study.Arch)
		if err != nil {
			return err
		}
		scfg.Mapper = opt
		scfg.RebalanceEvery = 1
		// The controller watches — every per-frame hook runs — but never
		// steers: a challenger would have to win for longer than any run.
		// Left free to promote, which backend steered (and so the plans,
		// allocations and misses) differed between repetitions of one seed
		// with the goroutine interleaving.
		if sys.ctl, err = promote.NewController(promote.Config{Challenger: "auto", BeatFrames: math.MaxInt32}); err != nil {
			return err
		}
		if err := os.MkdirAll(outDir, 0o755); err != nil {
			return err
		}
		if sys.flightAt, err = os.MkdirTemp(outDir, "flight-"); err != nil {
			return err
		}
		if sys.flight, err = span.NewFlightRecorder(filepath.Join(sys.flightAt, "dumps"), span.DefaultTriggers()); err != nil {
			return err
		}
		sys.reg = metrics.NewRegistry()
		if _, err := metrics.NewRuntimeMetrics(sys.reg); err != nil {
			return err
		}
		for _, b := range sys.boards {
			if err := b.EnableMetrics(sys.reg); err != nil {
				return err
			}
		}
		sys.tracker = slo.NewTracker(slo.Config{Streams: w.streams})
		if err := sys.tracker.EnableMetrics(sys.reg, names); err != nil {
			return err
		}
		scfg.Metrics, scfg.Flight, scfg.Promote = sys.reg, sys.flight, sys.ctl
		scfg.SLO, scfg.SLOExemplars = sys.tracker, true
	}
	if sys.srv, err = stream.NewServer(scfg, cfgs); err != nil {
		return err
	}
	if sys.ctl != nil {
		// After NewServer: EnableMetrics needs the attached roster.
		if err := sys.ctl.EnableMetrics(sys.reg); err != nil {
			return err
		}
	}
	return nil
}
