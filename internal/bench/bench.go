// Package bench is the machine-readable performance trajectory: it runs a
// fixed set of multi-stream workload scenarios through the serial path and
// the committed parallel path under *two mapping policies* — the greedy
// proportional baseline and the bi-criteria Pareto optimizer
// (internal/mapping) — and emits one BENCH_<pr>.json point per PR, so
// speedups are tracked — and regressions caught — across the repository's
// history.
//
// Each scenario models N concurrent streams sharing the paper's 8-core
// Blackford machine. The modeled cores are divided from a short serial
// profiling prefix (the Triple-C methodology: measure first, then commit
// resources) by the mapper under test: the greedy baseline splits
// proportionally (sched.GreedyMapper) and pipelines a stream whenever its
// share allows two partitions, with an even front/back split; the optimizer
// scores serial / striped / every pipelined front-back partition per share
// against the scenario-conditioned cost profile, keeps the Pareto front
// over (latency, period), and picks with pressure-adaptive weights.
//
// All times are the machine model's milliseconds, not host wall clock, so
// every number in the trajectory is bit-reproducible on any machine and in
// CI. Mapping changes schedules, never pixels: each mapper run's outputs
// are checksummed against the serial baseline's, and outputs_identical is
// part of the validated schema.
package bench

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"

	"triplec/internal/frame"
	"triplec/internal/mapping"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/sched"
	"triplec/internal/stats"
	"triplec/internal/synth"
)

// Schema identifies the trajectory file format. v2 nests per-mapper runs
// (greedy vs optimizer) inside each scenario.
const Schema = "triplec-bench/v2"

// PR is the trajectory point this tree emits (BENCH_<PR>.json).
const PR = 7

// profileFrames is the serial profiling prefix length used to derive the
// per-stream demand signal the mapper divides the modeled machine by.
const profileFrames = 12

// Mapper-mode selectors for Options.Mapper / Trajectory.MapperMode.
const (
	MapperBoth      = "both"
	MapperGreedy    = "greedy"
	MapperOptimizer = "optimizer"
)

// Scenario is one benchmark workload: N streams of a given geometry and
// image difficulty served concurrently on the modeled machine.
type Scenario struct {
	Name          string
	Streams       int
	Width, Height int
	Spacing       float64
	NoiseSigma    float64
	ClutterRate   float64
	// Mixed varies noise and clutter per stream index, so the demands — and
	// therefore the core split — are deliberately unequal.
	Mixed bool
	// Frames per stream in full mode; Options.Short cuts it to a third
	// (floor 16).
	Frames int
}

// Scenarios returns the fixed 8-scenario workload matrix: 1/2/4/8 streams,
// 128 and 192 px geometries, clean, noisy and mixed difficulty.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "1x128-clean", Streams: 1, Width: 128, Height: 128, Spacing: 36, NoiseSigma: 120, ClutterRate: 1, Frames: 96},
		{Name: "1x192-clean", Streams: 1, Width: 192, Height: 192, Spacing: 54, NoiseSigma: 120, ClutterRate: 1, Frames: 64},
		{Name: "2x128-mixed", Streams: 2, Width: 128, Height: 128, Spacing: 36, NoiseSigma: 150, ClutterRate: 2, Mixed: true, Frames: 72},
		{Name: "2x192-noisy", Streams: 2, Width: 192, Height: 192, Spacing: 54, NoiseSigma: 250, ClutterRate: 3, Frames: 48},
		{Name: "4x128-clean", Streams: 4, Width: 128, Height: 128, Spacing: 36, NoiseSigma: 120, ClutterRate: 1, Frames: 48},
		{Name: "4x128-noisy", Streams: 4, Width: 128, Height: 128, Spacing: 36, NoiseSigma: 250, ClutterRate: 3, Frames: 48},
		{Name: "8x128-clean", Streams: 8, Width: 128, Height: 128, Spacing: 36, NoiseSigma: 120, ClutterRate: 1, Frames: 32},
		{Name: "8x128-mixed", Streams: 8, Width: 128, Height: 128, Spacing: 36, NoiseSigma: 150, ClutterRate: 2, Mixed: true, Frames: 32},
	}
}

// MapperRun is one mapping policy's committed-path measurement within a
// scenario. All milliseconds and fps are modeled (machine-model time),
// rounded to 4 decimals.
type MapperRun struct {
	Mapper           string  `json:"mapper"`
	CoreBudgets      []int   `json:"core_budgets"`
	PipelinedStreams int     `json:"pipelined_streams"`
	StripedStreams   int     `json:"striped_streams"`
	FPS              float64 `json:"fps"`
	ThroughputGain   float64 `json:"throughput_gain"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	SpeedupMeasured  float64 `json:"speedup_measured"`
	SpeedupPredicted float64 `json:"speedup_predicted"`
	RelErr           float64 `json:"rel_err"`
	MemBoundFrac     float64 `json:"mem_bound_frac"`
	// ParetoPoints is the optimizer's total Pareto-front size across
	// streams at their chosen shares (0 for the greedy baseline, and 0 when
	// the optimizer fell back to the greedy division).
	ParetoPoints int `json:"pareto_points"`
	// OutputsIdentical records the bit-identity check: every output frame
	// of this run hashed equal to the serial baseline's.
	OutputsIdentical bool `json:"outputs_identical"`
}

// ScenarioResult is one scenario's trajectory point: the serial baseline
// plus one committed run per mapping policy.
type ScenarioResult struct {
	Name            string `json:"name"`
	Streams         int    `json:"streams"`
	FramesPerStream int    `json:"frames_per_stream"`
	// FPSSerial is the serial baseline throughput (slowest stream's serial
	// makespan).
	FPSSerial float64 `json:"fps_serial"`
	// Greedy and Optimizer are the per-policy committed runs; in a
	// single-mapper trajectory (MapperMode != "both") the absent run is
	// zero-valued.
	Greedy    MapperRun `json:"greedy"`
	Optimizer MapperRun `json:"optimizer"`
	// OptOverGreedy is Optimizer.FPS / Greedy.FPS (0 unless both ran): the
	// side-by-side headline — above 1, the Pareto mappings beat the
	// proportional split on this scenario.
	OptOverGreedy float64 `json:"opt_over_greedy"`
}

// Runs returns the scenario's present mapper runs.
func (r *ScenarioResult) Runs() []*MapperRun {
	out := make([]*MapperRun, 0, 2)
	if r.Greedy.Mapper != "" {
		out = append(out, &r.Greedy)
	}
	if r.Optimizer.Mapper != "" {
		out = append(out, &r.Optimizer)
	}
	return out
}

// Summary aggregates the acceptance-relevant headlines.
type Summary struct {
	// BestMultiStreamGain is the largest throughput_gain over scenarios
	// with more than one stream (optimizer run when present, else greedy).
	BestMultiStreamGain float64 `json:"best_multi_stream_gain"`
	// ScenariosWithinQuarter counts scenarios whose predicted speedup lies
	// within 25% of measured (optimizer run when present, else greedy).
	ScenariosWithinQuarter int `json:"scenarios_within_quarter"`
	// MinPipelinedSpeedup is the smallest measured pipelining speedup over
	// runs that actually pipelined (1 when none did).
	MinPipelinedSpeedup float64 `json:"min_pipelined_speedup"`
	// AggFPSGreedy / AggFPSOptimizer sum each policy's fps across
	// scenarios — the aggregate multi-stream throughput the CI gate
	// compares (0 when the policy did not run).
	AggFPSGreedy    float64 `json:"agg_fps_greedy"`
	AggFPSOptimizer float64 `json:"agg_fps_optimizer"`
	// AggOptOverGreedy is AggFPSOptimizer / AggFPSGreedy (0 unless both
	// ran); BestOptOverGreedy is the largest per-scenario ratio.
	AggOptOverGreedy  float64 `json:"agg_opt_over_greedy"`
	BestOptOverGreedy float64 `json:"best_opt_over_greedy"`
}

// Trajectory is the full BENCH_<pr>.json document.
type Trajectory struct {
	Schema     string           `json:"schema"`
	PR         int              `json:"pr"`
	Arch       string           `json:"arch"`
	ModelCores int              `json:"model_cores"`
	Short      bool             `json:"short"`
	MapperMode string           `json:"mapper_mode"`
	Scenarios  []ScenarioResult `json:"scenarios"`
	Summary    Summary          `json:"summary"`
}

// Options tunes a trajectory run.
type Options struct {
	// Short cuts every scenario's frame count to a third (floor 16) for CI.
	Short bool
	// Mapper selects which policies run: "both" (default), "greedy" or
	// "optimizer".
	Mapper string
	// Log, when set, receives one progress line per scenario.
	Log io.Writer
}

// Run executes the full scenario matrix and assembles the trajectory.
func Run(opts Options) (Trajectory, error) {
	mode := opts.Mapper
	if mode == "" {
		mode = MapperBoth
	}
	if mode != MapperBoth && mode != MapperGreedy && mode != MapperOptimizer {
		return Trajectory{}, fmt.Errorf("bench: unknown mapper %q (want %s, %s or %s)",
			mode, MapperBoth, MapperGreedy, MapperOptimizer)
	}
	scens := Scenarios()
	results := make([]ScenarioResult, 0, len(scens))
	for i, sc := range scens {
		frames := sc.Frames
		if opts.Short {
			frames = sc.Frames / 3
			if frames < 16 {
				frames = 16
			}
		}
		res, err := runScenario(sc, uint64(1+8009*i), frames, mode)
		if err != nil {
			return Trajectory{}, fmt.Errorf("bench: scenario %s: %w", sc.Name, err)
		}
		if opts.Log != nil {
			line := fmt.Sprintf("%-12s streams=%d", res.Name, res.Streams)
			for _, run := range res.Runs() {
				line += fmt.Sprintf("  %s: budgets=%v gain=%.2fx", run.Mapper, run.CoreBudgets, run.ThroughputGain)
			}
			if res.OptOverGreedy > 0 {
				line += fmt.Sprintf("  opt/greedy=%.3f", res.OptOverGreedy)
			}
			fmt.Fprintln(opts.Log, line)
		}
		results = append(results, res)
	}
	return assemble(results, opts.Short, mode), nil
}

// streamConfig derives stream s's synthetic-sequence configuration; Mixed
// scenarios skew noise and clutter per stream so demands differ.
func streamConfig(sc Scenario, s int, seed uint64) synth.Config {
	cfg := synth.DefaultConfig(seed)
	cfg.Width, cfg.Height = sc.Width, sc.Height
	cfg.MarkerSpacing = sc.Spacing
	cfg.NoiseSigma = sc.NoiseSigma
	cfg.QuantumGain = 0
	cfg.ClutterRate = sc.ClutterRate
	cfg.DropoutEvery = 23
	if sc.Mixed {
		cfg.NoiseSigma += 60 * float64(s%3)
		cfg.ClutterRate += float64(s % 2)
	}
	return cfg
}

func newEngine(sc Scenario) (*pipeline.Engine, error) {
	return pipeline.New(pipeline.Config{
		Width: sc.Width, Height: sc.Height,
		MarkerSpacing: sc.Spacing,
		Arch:          platform.Blackford(),
	})
}

// outputDigest accumulates an order-sensitive FNV-1a digest of committed
// output frames — the bit-identity witness comparing a mapper run against
// the serial baseline.
type outputDigest struct{ h uint64 }

func newOutputDigest() *outputDigest { return &outputDigest{h: 14695981039346656037} }

func (d *outputDigest) mix(v uint64) {
	d.h ^= v
	d.h *= 1099511628211
}

func (d *outputDigest) observe(r pipeline.Report) {
	d.mix(uint64(r.Index))
	if r.Output == nil {
		d.mix(0xdead)
		return
	}
	w, h := r.Output.Width(), r.Output.Height()
	d.mix(uint64(w))
	d.mix(uint64(h))
	for y := 0; y < h; y++ {
		for _, px := range r.Output.Row(y) {
			d.mix(uint64(px))
		}
	}
}

// streamRun is one stream's measured committed path under a mapper's plan.
type streamRun struct {
	reports   []pipeline.Report
	servedMs  float64 // pooled stage time of the served reports
	effMs     float64 // effective makespan (pipelined overlap or serial sum)
	predEffMs float64 // makespan the analytical estimator predicts
	memBound  float64 // estimator's memory-bound weight (pipelined only)
	pipelined bool
	digest    uint64
}

// runStream executes one stream under a plan and measures it. Serial plans
// reuse baseline, the caller's pre-measured serial run, instead of
// re-executing.
func runStream(sc Scenario, src func(int) *frame.Frame, frames int, plan sched.StreamPlan, baseline streamRun) (streamRun, error) {
	arch := platform.Blackford()
	if !plan.Pipelined && (!plan.Striped || plan.Cores < 2) {
		return baseline, nil
	}
	eng, err := newEngine(sc)
	if err != nil {
		return streamRun{}, err
	}
	dig := newOutputDigest()
	eng.SetObserver(dig.observe)
	m := plan.Mapping(arch.NumCPUs)
	run := streamRun{}
	if plan.Pipelined {
		reps, err := eng.RunSequencePipelined(frames, src, m)
		if err != nil {
			return streamRun{}, err
		}
		tl := mapping.MeasureTimeline(reps)
		est, err := mapping.Predict(reps, arch)
		if err != nil {
			return streamRun{}, err
		}
		run = streamRun{
			reports: reps, servedMs: tl.SerialMs, effMs: tl.MakespanMs,
			predEffMs: tl.SerialMs / est.Speedup,
			memBound:  est.MemBoundFrac, pipelined: true,
		}
	} else {
		reps, err := eng.RunSequence(frames, src, m)
		if err != nil {
			return streamRun{}, err
		}
		tl := mapping.MeasureTimeline(reps)
		run = streamRun{reports: reps, servedMs: tl.SerialMs, effMs: tl.SerialMs, predEffMs: tl.SerialMs}
	}
	run.digest = dig.h
	return run, nil
}

// measureMapper runs every stream under the mapper's plans and aggregates
// the policy's trajectory numbers against the serial baseline.
func measureMapper(sc Scenario, name string, plans []sched.StreamPlan, paretoPoints int,
	sources []func(int) *frame.Frame, frames int, baselines []streamRun, wallSerial float64) (MapperRun, error) {
	run := MapperRun{Mapper: name, ParetoPoints: paretoPoints, OutputsIdentical: true}
	run.CoreBudgets = make([]int, len(plans))
	var (
		wallEff                    float64
		sumServed, sumEff, sumPred float64
		memBoundWeight             float64
		latencies                  []float64
	)
	for s, plan := range plans {
		run.CoreBudgets[s] = plan.Cores
		sr, err := runStream(sc, sources[s], frames, plan, baselines[s])
		if err != nil {
			return MapperRun{}, err
		}
		if sr.pipelined {
			run.PipelinedStreams++
			memBoundWeight += sr.memBound * float64(frames)
		} else if plan.Striped && plan.Cores >= 2 {
			run.StripedStreams++
		}
		if sr.digest != baselines[s].digest {
			run.OutputsIdentical = false
		}
		if sr.effMs > wallEff {
			wallEff = sr.effMs
		}
		sumServed += sr.servedMs
		sumEff += sr.effMs
		sumPred += sr.predEffMs
		for _, r := range sr.reports {
			latencies = append(latencies, r.LatencyMs)
		}
	}
	total := float64(frames * len(plans))
	run.FPS = round4(total * 1e3 / wallEff)
	run.ThroughputGain = round4(wallSerial / wallEff)
	run.SpeedupMeasured = round4(sumServed / sumEff)
	run.SpeedupPredicted = round4(sumServed / sumPred)
	run.RelErr = round4(math.Abs(run.SpeedupPredicted-run.SpeedupMeasured) / run.SpeedupMeasured)
	run.MemBoundFrac = round4(memBoundWeight / total)
	p50, err := stats.Percentile(latencies, 50)
	if err != nil {
		return MapperRun{}, err
	}
	p99, err := stats.Percentile(latencies, 99)
	if err != nil {
		return MapperRun{}, err
	}
	run.P50Ms, run.P99Ms = round4(p50), round4(p99)
	return run, nil
}

// runScenario executes one scenario: profile every stream serially, let
// each requested mapper divide the machine, then serve every stream through
// the serial baseline and the mapper's committed path.
func runScenario(sc Scenario, seedBase uint64, frames int, mode string) (ScenarioResult, error) {
	arch := platform.Blackford()
	sources := make([]func(int) *frame.Frame, sc.Streams)
	demands := make([]sched.StreamDemand, sc.Streams)
	frameKB := sc.Width * sc.Height * frame.BytesPerPixel / 1024
	for s := 0; s < sc.Streams; s++ {
		seq, err := synth.New(streamConfig(sc, s, seedBase+131*uint64(s)))
		if err != nil {
			return ScenarioResult{}, err
		}
		src := func(i int) *frame.Frame {
			f, _ := seq.Frame(i)
			return f
		}
		sources[s] = src

		// Profiling prefix: a short serial run whose mean modeled latency
		// and scenario-conditioned cost profile are the demand signal the
		// mapper divides the machine by.
		eng, err := newEngine(sc)
		if err != nil {
			return ScenarioResult{}, err
		}
		n := profileFrames
		if n > frames {
			n = frames
		}
		reps, err := eng.RunSequence(n, src, partition.Serial())
		if err != nil {
			return ScenarioResult{}, err
		}
		demands[s] = sched.DemandFromReports(reps, 0)
		demands[s].FrameKB = frameKB
	}

	res := ScenarioResult{Name: sc.Name, Streams: sc.Streams, FramesPerStream: frames}

	// Serial baseline: full run per stream, digesting outputs for the
	// bit-identity comparison.
	baselines := make([]streamRun, sc.Streams)
	wallSerial := 0.0
	for s := 0; s < sc.Streams; s++ {
		eng, err := newEngine(sc)
		if err != nil {
			return ScenarioResult{}, err
		}
		dig := newOutputDigest()
		eng.SetObserver(dig.observe)
		reps, err := eng.RunSequence(frames, sources[s], partition.Serial())
		if err != nil {
			return ScenarioResult{}, err
		}
		serialMs := mapping.MeasureTimeline(reps).SerialMs
		baselines[s] = streamRun{
			reports: reps, servedMs: serialMs, effMs: serialMs, predEffMs: serialMs,
			digest: dig.h,
		}
		if serialMs > wallSerial {
			wallSerial = serialMs
		}
	}
	total := float64(frames * sc.Streams)
	res.FPSSerial = round4(total * 1e3 / wallSerial)

	plans := make([]sched.StreamPlan, sc.Streams)
	if mode == MapperBoth || mode == MapperGreedy {
		g := &sched.GreedyMapper{}
		if err := g.Map(arch.NumCPUs, demands, plans); err != nil {
			return ScenarioResult{}, err
		}
		run, err := measureMapper(sc, MapperGreedy, plans, 0, sources, frames, baselines, wallSerial)
		if err != nil {
			return ScenarioResult{}, err
		}
		res.Greedy = run
	}
	if mode == MapperBoth || mode == MapperOptimizer {
		opt, err := mapping.NewOptimizer(arch)
		if err != nil {
			return ScenarioResult{}, err
		}
		if err := opt.Map(arch.NumCPUs, demands, plans); err != nil {
			return ScenarioResult{}, err
		}
		run, err := measureMapper(sc, MapperOptimizer, plans, opt.LastParetoPoints, sources, frames, baselines, wallSerial)
		if err != nil {
			return ScenarioResult{}, err
		}
		res.Optimizer = run
	}
	if res.Greedy.FPS > 0 && res.Optimizer.FPS > 0 {
		res.OptOverGreedy = round4(res.Optimizer.FPS / res.Greedy.FPS)
	}
	return res, nil
}

// assemble builds the trajectory document around the scenario results.
func assemble(results []ScenarioResult, short bool, mode string) Trajectory {
	t := Trajectory{
		Schema: Schema, PR: PR,
		Arch:       "Blackford DP Xeon E5345 (8-core)",
		ModelCores: platform.Blackford().NumCPUs,
		Short:      short,
		MapperMode: mode,
		Scenarios:  results,
	}
	t.Summary = summarize(results)
	return t
}

// headline returns the run the scenario's headline numbers come from: the
// optimizer when present, else greedy.
func (r *ScenarioResult) headline() *MapperRun {
	if r.Optimizer.Mapper != "" {
		return &r.Optimizer
	}
	return &r.Greedy
}

func summarize(results []ScenarioResult) Summary {
	s := Summary{MinPipelinedSpeedup: 1}
	minSet := false
	for i := range results {
		r := &results[i]
		h := r.headline()
		if r.Streams > 1 && h.ThroughputGain > s.BestMultiStreamGain {
			s.BestMultiStreamGain = h.ThroughputGain
		}
		if h.RelErr <= 0.25 {
			s.ScenariosWithinQuarter++
		}
		for _, run := range r.Runs() {
			if run.PipelinedStreams > 0 && (!minSet || run.SpeedupMeasured < s.MinPipelinedSpeedup) {
				s.MinPipelinedSpeedup = run.SpeedupMeasured
				minSet = true
			}
		}
		s.AggFPSGreedy += r.Greedy.FPS
		s.AggFPSOptimizer += r.Optimizer.FPS
		if r.OptOverGreedy > s.BestOptOverGreedy {
			s.BestOptOverGreedy = r.OptOverGreedy
		}
	}
	s.AggFPSGreedy = round4(s.AggFPSGreedy)
	s.AggFPSOptimizer = round4(s.AggFPSOptimizer)
	if s.AggFPSGreedy > 0 && s.AggFPSOptimizer > 0 {
		s.AggOptOverGreedy = round4(s.AggFPSOptimizer / s.AggFPSGreedy)
	}
	return s
}

// validateRun checks one mapper run's internal consistency.
func validateRun(name string, streams, modelCores int, run *MapperRun) error {
	if run.Mapper == "" {
		return fmt.Errorf("bench: %s: mapper run missing", name)
	}
	if len(run.CoreBudgets) != streams {
		return fmt.Errorf("bench: %s/%s: %d budgets for %d streams", name, run.Mapper, len(run.CoreBudgets), streams)
	}
	sum := 0
	for _, b := range run.CoreBudgets {
		if b < 0 {
			return fmt.Errorf("bench: %s/%s: negative core budget %d", name, run.Mapper, b)
		}
		sum += b
	}
	if sum > modelCores {
		return fmt.Errorf("bench: %s/%s: budgets %v over-commit %d cores", name, run.Mapper, run.CoreBudgets, modelCores)
	}
	if run.PipelinedStreams < 0 || run.PipelinedStreams > streams {
		return fmt.Errorf("bench: %s/%s: pipelined_streams %d out of range", name, run.Mapper, run.PipelinedStreams)
	}
	if run.StripedStreams < 0 || run.StripedStreams+run.PipelinedStreams > streams {
		return fmt.Errorf("bench: %s/%s: striped_streams %d out of range", name, run.Mapper, run.StripedStreams)
	}
	for _, v := range []struct {
		name string
		val  float64
	}{
		{"fps", run.FPS}, {"throughput_gain", run.ThroughputGain},
		{"p50_ms", run.P50Ms}, {"p99_ms", run.P99Ms},
		{"speedup_measured", run.SpeedupMeasured}, {"speedup_predicted", run.SpeedupPredicted},
	} {
		if v.val <= 0 || math.IsNaN(v.val) || math.IsInf(v.val, 0) {
			return fmt.Errorf("bench: %s/%s: %s = %v must be positive and finite", name, run.Mapper, v.name, v.val)
		}
	}
	if run.P50Ms > run.P99Ms {
		return fmt.Errorf("bench: %s/%s: p50 %v exceeds p99 %v", name, run.Mapper, run.P50Ms, run.P99Ms)
	}
	// The window-2 pipeline cannot measure beyond its two-stage bound.
	if run.SpeedupMeasured > 2.001 {
		return fmt.Errorf("bench: %s/%s: measured speedup %v exceeds the two-stage bound", name, run.Mapper, run.SpeedupMeasured)
	}
	if run.RelErr < 0 || math.IsNaN(run.RelErr) {
		return fmt.Errorf("bench: %s/%s: rel_err %v invalid", name, run.Mapper, run.RelErr)
	}
	want := math.Abs(run.SpeedupPredicted-run.SpeedupMeasured) / run.SpeedupMeasured
	if math.Abs(run.RelErr-want) > 5e-3 {
		return fmt.Errorf("bench: %s/%s: rel_err %v inconsistent with speedups (want %.4f)", name, run.Mapper, run.RelErr, want)
	}
	if run.MemBoundFrac < 0 || run.MemBoundFrac > 1 {
		return fmt.Errorf("bench: %s/%s: mem_bound_frac %v out of [0,1]", name, run.Mapper, run.MemBoundFrac)
	}
	if run.ParetoPoints < 0 {
		return fmt.Errorf("bench: %s/%s: pareto_points %d negative", name, run.Mapper, run.ParetoPoints)
	}
	if !run.OutputsIdentical {
		return fmt.Errorf("bench: %s/%s: outputs diverged from the serial baseline (mapping must change schedules, never pixels)", name, run.Mapper)
	}
	return nil
}

// Validate checks the trajectory's schema: field presence, internal
// consistency, and physically meaningful ranges. It is the machine-readable
// contract CI enforces on every emitted BENCH_*.json.
func (t Trajectory) Validate() error {
	if t.Schema != Schema {
		return fmt.Errorf("bench: schema %q, want %q", t.Schema, Schema)
	}
	if t.PR < 1 {
		return fmt.Errorf("bench: PR %d invalid", t.PR)
	}
	if t.Arch == "" {
		return errors.New("bench: empty arch")
	}
	if t.ModelCores < 1 {
		return fmt.Errorf("bench: model_cores %d invalid", t.ModelCores)
	}
	switch t.MapperMode {
	case MapperBoth, MapperGreedy, MapperOptimizer:
	default:
		return fmt.Errorf("bench: mapper_mode %q invalid", t.MapperMode)
	}
	if len(t.Scenarios) == 0 {
		return errors.New("bench: no scenarios")
	}
	seen := map[string]bool{}
	for i := range t.Scenarios {
		r := &t.Scenarios[i]
		if r.Name == "" || seen[r.Name] {
			return fmt.Errorf("bench: missing or duplicate scenario name %q", r.Name)
		}
		seen[r.Name] = true
		if r.Streams < 1 || r.FramesPerStream < 1 {
			return fmt.Errorf("bench: %s: streams %d / frames %d invalid", r.Name, r.Streams, r.FramesPerStream)
		}
		if r.FPSSerial <= 0 || math.IsNaN(r.FPSSerial) || math.IsInf(r.FPSSerial, 0) {
			return fmt.Errorf("bench: %s: fps_serial = %v must be positive and finite", r.Name, r.FPSSerial)
		}
		wantGreedy := t.MapperMode == MapperBoth || t.MapperMode == MapperGreedy
		wantOpt := t.MapperMode == MapperBoth || t.MapperMode == MapperOptimizer
		if wantGreedy {
			if err := validateRun(r.Name, r.Streams, t.ModelCores, &r.Greedy); err != nil {
				return err
			}
		} else if r.Greedy.Mapper != "" {
			return fmt.Errorf("bench: %s: unexpected greedy run in %s mode", r.Name, t.MapperMode)
		}
		if wantOpt {
			if err := validateRun(r.Name, r.Streams, t.ModelCores, &r.Optimizer); err != nil {
				return err
			}
		} else if r.Optimizer.Mapper != "" {
			return fmt.Errorf("bench: %s: unexpected optimizer run in %s mode", r.Name, t.MapperMode)
		}
		if t.MapperMode == MapperBoth {
			want := round4(r.Optimizer.FPS / r.Greedy.FPS)
			if math.Abs(r.OptOverGreedy-want) > 5e-3 {
				return fmt.Errorf("bench: %s: opt_over_greedy %v inconsistent with fps ratio (want %.4f)", r.Name, r.OptOverGreedy, want)
			}
		}
	}
	want := summarize(t.Scenarios)
	if math.Abs(want.BestMultiStreamGain-t.Summary.BestMultiStreamGain) > 5e-3 ||
		want.ScenariosWithinQuarter != t.Summary.ScenariosWithinQuarter ||
		math.Abs(want.MinPipelinedSpeedup-t.Summary.MinPipelinedSpeedup) > 5e-3 ||
		math.Abs(want.AggFPSGreedy-t.Summary.AggFPSGreedy) > 5e-3 ||
		math.Abs(want.AggFPSOptimizer-t.Summary.AggFPSOptimizer) > 5e-3 ||
		math.Abs(want.AggOptOverGreedy-t.Summary.AggOptOverGreedy) > 5e-3 ||
		math.Abs(want.BestOptOverGreedy-t.Summary.BestOptOverGreedy) > 5e-3 {
		return fmt.Errorf("bench: summary %+v inconsistent with scenarios (want %+v)", t.Summary, want)
	}
	return nil
}

// Check enforces the regression gate: every mapper run that pipelined must
// have measured at least minSpeedup over serial. All violations are
// collected — the error names every scenario/mapper pair that missed the
// floor, not just the first.
func (t Trajectory) Check(minSpeedup float64) error {
	var errs []error
	for i := range t.Scenarios {
		r := &t.Scenarios[i]
		for _, run := range r.Runs() {
			if run.PipelinedStreams > 0 && run.SpeedupMeasured < minSpeedup {
				errs = append(errs, fmt.Errorf("bench: %s/%s: pipelined speedup %.3f below the %.2f floor",
					r.Name, run.Mapper, run.SpeedupMeasured, minSpeedup))
			}
		}
	}
	return errors.Join(errs...)
}

// CheckOptimizer enforces the bi-criteria gate on a both-mapper trajectory:
// the optimizer's aggregate throughput must be at least the greedy
// baseline's (0.5% tolerance for pooled rounding), and no single scenario
// may regress more than 2%.
func (t Trajectory) CheckOptimizer() error {
	if t.MapperMode != MapperBoth {
		return fmt.Errorf("bench: optimizer gate needs a both-mapper trajectory, got %q", t.MapperMode)
	}
	var errs []error
	if t.Summary.AggOptOverGreedy < 0.995 {
		errs = append(errs, fmt.Errorf("bench: optimizer aggregate throughput %.4f of greedy, below the 0.995 floor",
			t.Summary.AggOptOverGreedy))
	}
	for i := range t.Scenarios {
		r := &t.Scenarios[i]
		if r.OptOverGreedy > 0 && r.OptOverGreedy < 0.98 {
			errs = append(errs, fmt.Errorf("bench: %s: optimizer throughput %.4f of greedy, below the 0.98 per-scenario floor",
				r.Name, r.OptOverGreedy))
		}
	}
	return errors.Join(errs...)
}

// WriteJSON emits the trajectory as indented JSON.
func (t Trajectory) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(t)
}

func round4(v float64) float64 {
	return math.Round(v*1e4) / 1e4
}
