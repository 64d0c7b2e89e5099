// Package fault is the deterministic fault-injection layer behind the
// reproduction's chaos runs: a seeded injector that wraps task execution
// (panics, latency spikes, stuck-task hangs) and frame delivery (pixel
// corruption) so robustness failures reproduce from a seed, plus a per-task
// circuit breaker with half-open probing that the pipeline uses to keep a
// repeatedly failing optional task from poisoning every frame.
//
// The injector plugs into the serving stack through the pipeline's fault
// hooks (Engine.SetTaskHook, Engine.SetGate) and a frame-source wrapper, so
// neither internal/pipeline nor internal/stream imports this package on the
// healthy path — chaos wiring lives in the chaos subcommand and the tests.
package fault

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"triplec/internal/frame"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Probs is one task-invocation fault mix. Each field is a probability in
// [0, 1]; the three faults are mutually exclusive per invocation (panic is
// drawn first, then hang, then spike, from a single uniform sample, so
// enabling one fault class never shifts another's decision stream).
type Probs struct {
	Panic float64 // abort the task with a panic
	Hang  float64 // block the task for Config.HangMs (a stuck task)
	Spike float64 // delay the task by Config.SpikeMs (a latency spike)
}

func (p Probs) total() float64 { return p.Panic + p.Hang + p.Spike }

func (p Probs) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{{"panic", p.Panic}, {"hang", p.Hang}, {"spike", p.Spike}} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("fault: default %s probability %v outside [0, 1]", f.name, f.v)
		}
	}
	if p.total() > 1 {
		return fmt.Errorf("fault: default probabilities sum to %v > 1", p.total())
	}
	return nil
}

// Config is a fault plan: the task fault mix, the frame-corruption rate and
// the fault magnitudes, all driven by one seed. The zero value injects
// nothing.
type Config struct {
	// Seed drives every injection decision. Two runs with the same plan and
	// the same per-stream call sequence inject identical faults.
	Seed uint64
	// Defaults is the fault mix applied to every task invocation.
	Defaults Probs
	// CorruptProb is the per-frame probability that the source frame is
	// replaced by a copy with a corrupted pixel band.
	CorruptProb float64
	// HangMs is how long a stuck task blocks (default 200). Bounded on
	// purpose: an unbounded hang would leak the worker executing it; the
	// serving layer's stall watchdog is what turns a long hang into a
	// stream crash.
	HangMs float64
	// SpikeMs is the latency-spike magnitude (default 25).
	SpikeMs float64
}

func (c Config) withDefaults() Config {
	if c.HangMs == 0 {
		c.HangMs = 200
	}
	if c.SpikeMs == 0 {
		c.SpikeMs = 25
	}
	return c
}

// Validate checks the plan's probabilities and magnitudes.
func (c Config) Validate() error {
	if err := c.Defaults.validate(); err != nil {
		return err
	}
	if math.IsNaN(c.CorruptProb) || c.CorruptProb < 0 || c.CorruptProb > 1 {
		return fmt.Errorf("fault: corrupt probability %v outside [0, 1]", c.CorruptProb)
	}
	if math.IsNaN(c.HangMs) || math.IsInf(c.HangMs, 0) || c.HangMs < 0 {
		return fmt.Errorf("fault: hang duration %v ms must be finite and non-negative", c.HangMs)
	}
	if math.IsNaN(c.SpikeMs) || math.IsInf(c.SpikeMs, 0) || c.SpikeMs < 0 {
		return fmt.Errorf("fault: spike duration %v ms must be finite and non-negative", c.SpikeMs)
	}
	return nil
}

// Kind classifies one injected fault for observation hooks.
type Kind int

// The injector's four fault classes.
const (
	KindPanic Kind = iota
	KindHang
	KindSpike
	KindCorrupt
)

func (k Kind) String() string {
	switch k {
	case KindPanic:
		return "panic"
	case KindHang:
		return "hang"
	case KindSpike:
		return "spike"
	case KindCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// InjectedPanic is the value an injected task panic carries, so chaos tests
// and recovery paths can tell injected faults from genuine bugs.
type InjectedPanic struct {
	Task  tasks.Name
	Frame int
}

func (p InjectedPanic) String() string {
	return fmt.Sprintf("injected panic in %s at frame %d", p.Task, p.Frame)
}

// Counts reports how many faults an injector has fired.
type Counts struct {
	Panics, Hangs, Spikes, Corrupted uint64
}

func (c Counts) String() string {
	return fmt.Sprintf("panics=%d hangs=%d spikes=%d corrupted=%d",
		c.Panics, c.Hangs, c.Spikes, c.Corrupted)
}

// Injector deterministically injects the plan's faults into one stream's
// task and frame path. Install BeforeTask as the engine's task hook and wrap
// the stream's source with WrapSource.
//
// The decision stream is a single seeded RNG, so with one injector per
// stream (see ForStream) a chaos run replays exactly from its seed. The RNG
// is mutex-guarded anyway: after a stall the serving layer abandons the hung
// frame, and the late goroutine may still draw while the restarted stream
// proceeds.
type Injector struct {
	cfg    Config
	stream int // which stream this injector drives (ForStream)

	mu  sync.Mutex
	rng *stats.RNG

	// counts is shared between a base injector and its ForStream children,
	// so the base's Counts() aggregates the whole chaos run.
	counts *counters

	// onFault, when set (SetOnFault before ForStream), observes every fired
	// fault — the span layer's injection instant. It runs on the injecting
	// goroutine, immediately before the fault takes effect (before an
	// injected panic unwinds), and must not block.
	onFault func(stream int, task tasks.Name, frame int, kind Kind)

	// sleep is swapped out by tests to keep chaos units fast.
	sleep func(time.Duration)
}

type counters struct {
	panics, hangs, spikes, corrupted atomic.Uint64
}

// New builds an injector for the plan.
func New(cfg Config) (*Injector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	return &Injector{cfg: cfg, rng: stats.NewRNG(cfg.Seed), counts: &counters{}, sleep: time.Sleep}, nil
}

// ForStream derives an independent injector for stream i: same plan, a
// seed split from the base seed, so per-stream decision sequences stay
// deterministic regardless of goroutine interleaving. The fault counters
// are shared with the base injector, whose Counts() therefore aggregates
// the whole run.
func (in *Injector) ForStream(i int) *Injector {
	child, err := New(in.cfg)
	if err != nil { // in was built from a validated config
		panic(err)
	}
	child.rng = stats.NewRNG(in.cfg.Seed ^ (0x9e3779b97f4a7c15 * (uint64(i) + 1)))
	child.counts = in.counts
	child.onFault = in.onFault
	child.stream = i
	child.sleep = in.sleep
	return child
}

// SetOnFault installs a hook observing every fired fault. Set it on the
// base injector before deriving per-stream children; children inherit it.
func (in *Injector) SetOnFault(fn func(stream int, task tasks.Name, frame int, kind Kind)) {
	in.onFault = fn
}

// fired reports one fault to the observation hook.
func (in *Injector) fired(task tasks.Name, frame int, kind Kind) {
	if in.onFault != nil {
		in.onFault(in.stream, task, frame, kind)
	}
}

// BeforeTask is the pipeline task hook: invoked before every task execution,
// it may panic (with an InjectedPanic), block for HangMs (a stuck task) or
// sleep SpikeMs (a latency spike), each with its configured probability.
func (in *Injector) BeforeTask(task tasks.Name, frameIdx int) {
	p := in.cfg.Defaults
	if p.total() == 0 {
		return
	}
	in.mu.Lock()
	u := in.rng.Float64()
	in.mu.Unlock()
	switch {
	case u < p.Panic:
		in.counts.panics.Add(1)
		in.fired(task, frameIdx, KindPanic)
		panic(InjectedPanic{Task: task, Frame: frameIdx})
	case u < p.Panic+p.Hang:
		in.counts.hangs.Add(1)
		in.fired(task, frameIdx, KindHang)
		in.sleep(time.Duration(in.cfg.HangMs * float64(time.Millisecond)))
	case u < p.Panic+p.Hang+p.Spike:
		in.counts.spikes.Add(1)
		in.fired(task, frameIdx, KindSpike)
		in.sleep(time.Duration(in.cfg.SpikeMs * float64(time.Millisecond)))
	}
}

// WrapSource wraps a frame source: with CorruptProb, the delivered frame is
// a copy with one horizontal band overwritten by uniform noise (the
// original is never mutated — sources may share frames across streams). The
// pipeline must survive the garbage; the scenario switches it flips exercise
// the predictor's robustness.
func (in *Injector) WrapSource(src func(int) *frame.Frame) func(int) *frame.Frame {
	if src == nil || in.cfg.CorruptProb == 0 {
		return src
	}
	return func(i int) *frame.Frame {
		f := src(i)
		if f == nil || f.Pixels() == 0 {
			return f
		}
		in.mu.Lock()
		hit := in.rng.Float64() < in.cfg.CorruptProb
		var y0, rows int
		if hit {
			h := f.Height()
			rows = 1 + h/8
			y0 = in.rng.Intn(h)
		}
		in.mu.Unlock()
		if !hit {
			return f
		}
		in.counts.corrupted.Add(1)
		in.fired("", i, KindCorrupt)
		g := f.Clone()
		in.mu.Lock()
		for dy := 0; dy < rows; dy++ {
			y := y0 + dy
			if y >= g.Height() {
				break
			}
			row := g.Row(y)
			for x := range row {
				row[x] = uint16(in.rng.Uint64())
			}
		}
		in.mu.Unlock()
		return g
	}
}

// Counts returns the faults fired so far.
func (in *Injector) Counts() Counts {
	return Counts{
		Panics:    in.counts.panics.Load(),
		Hangs:     in.counts.hangs.Load(),
		Spikes:    in.counts.spikes.Load(),
		Corrupted: in.counts.corrupted.Load(),
	}
}

// SetSleep replaces the real clock used for hangs and spikes (tests).
func (in *Injector) SetSleep(fn func(time.Duration)) {
	if fn != nil {
		in.sleep = fn
	}
}
