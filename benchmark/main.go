// Command benchmark is the repository's ruler: it drives the real serving
// path (stream.Server.Run, built the way `triplec serve` builds it) on four
// named workloads with pre-generated frames, checks every output against a
// serial reference, and prints host wall-clock, allocation and modeled
// metrics end to end and — from a separate traced repetition — layer by
// layer. It claims no gain. See README.md for the workloads and metrics.
//
//	benchmark [-workload name]... [-seed n] [-reps n] [-seconds s] [-trace 0|1] [-out dir]
//	benchmark compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"triplec/internal/tasks"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

// metricDef names one metric. bound is the share of the parent's median an
// end-to-end metric may worsen by before a change counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	name, unit, better string
	bound              float64
}

// endToEnd is what a user of the serving system sees. BENCHMARK.json at the
// repository root repeats this table; the package test keeps them equal.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"frames_per_s", "1/s", "higher", 0.25},
	{"frame_service_p50_us", "us", "lower", 0.25},
	{"frame_service_p90_us", "us", "lower", 0.25},
	{"cpu_ms_per_frame", "ms", "lower", 0.25},
	{"allocs_per_frame", "count", "lower", 0.08},
	{"bytes_per_frame", "B", "lower", 0.10},
	{"retained_kb_per_frame", "KiB", "lower", 0.25},
	{"modeled_fps", "1/s", "higher", 0.25},
	{"modeled_latency_p99_ms", "ms", "lower", 0.15},
	{"deadline_hit_rate", "ratio", "higher", 0.02},
}

// pooled names the end-to-end percentiles that are taken over the samples
// of all repetitions together instead of as a median of per-repetition
// values: quantile q of the service intervals, or of the modeled latencies.
var pooled = map[string]struct {
	q       float64
	modeled bool
}{
	"frame_service_p50_us":   {q: 0.50},
	"frame_service_p90_us":   {q: 0.90},
	"modeled_latency_p99_ms": {q: 0.99, modeled: true},
}

// perLayer is the traced repetition's view, one group per package.
var perLayer = buildPerLayer()

func buildPerLayer() []metricDef {
	defs := []metricDef{
		{name: "synth.gen_us_per_frame", unit: "us", better: "lower"},
		{name: "frame.gaussian_ns_per_px", unit: "ns/px", better: "lower"},
		{name: "frame.sobel_ns_per_px", unit: "ns/px", better: "lower"},
		{name: "frame.convolve_ns_per_px", unit: "ns/px", better: "lower"},
		{name: "frame.median3_ns_per_px", unit: "ns/px", better: "lower"},
		{name: "frame.resize_ns_per_px", unit: "ns/px", better: "lower"},
	}
	for _, t := range tasks.AllNames() {
		defs = append(defs, metricDef{name: "tasks." + string(t) + "_us", unit: "us", better: "lower"})
	}
	for _, t := range tasks.AllNames() {
		defs = append(defs, metricDef{name: "tasks." + string(t) + "_count", unit: "count", better: "lower"})
	}
	for _, d := range [][2]string{
		{"pipeline.process_us", "us"}, {"pipeline.process_allocs", "count"}, {"pipeline.process_bytes", "B"},
		{"pipeline.modeled_latency_p50_ms", "ms"},
		{"parallel.do_ns", "ns"}, {"stream.dispatch_us", "us"},
		{"core.from_reports_ns", "ns"}, {"core.from_reports_allocs", "count"}, {"core.observe_predict_ns", "ns"},
		{"core.pred_within25_rate", "ratio"}, {"sched.deadline_miss_rate", "ratio"},
		{"sched.plan_ns", "ns"}, {"sched.observe_ns", "ns"}, {"sched.demand_ns", "ns"}, {"sched.rebalance_ns", "ns"},
		{"stream.rebalances_per_kframe", "count"},
		{"mapping.map_us", "us"}, {"mapping.map_allocs", "count"},
		{"shadow.observe_ns", "ns"}, {"promote.observe_ns", "ns"}, {"slo.observe_ns", "ns"},
		{"span.frame_ns", "ns"}, {"metrics.observe_ns", "ns"},
		{"metrics.exposition_us", "us"}, {"metrics.exposition_bytes", "B"}, {"stream.health_us", "us"},
		{"slo.status_us", "us"}, {"shadow.snapshot_us", "us"},
		{"stream.scrape_p50_us", "us"}, {"stream.scrape_p99_us", "us"}, {"stream.scrape_late_us", "us"},
		{"stream.frame_service_p99_us", "us"}, {"stream.tail_us", "us"}, {"stream.self_us", "us"},
		{"runtime.mutex_wait_us_per_frame", "us"}, {"runtime.gc_cycles_per_kframe", "count"}, {"runtime.gc_cpu_frac", "ratio"},
		{"trace.overhead_frac", "ratio"},
	} {
		better := "lower"
		if d[0] == "core.pred_within25_rate" {
			better = "higher"
		}
		defs = append(defs, metricDef{name: d[0], unit: d[1], better: better})
	}
	return defs
}

// document is the result file: one measured point of the trajectory.
type document struct {
	Schema     string            `json:"schema"`
	Seed       uint64            `json:"seed"`
	NProc      int               `json:"nproc"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	GoVersion  string            `json:"go_version"`
	Commit     string            `json:"commit"`
	Workloads  []*workloadResult `json:"workloads"`
}

type workloadResult struct {
	Name         string   `json:"name"`
	Streams      int      `json:"streams"`
	Size         int      `json:"size"`
	GOMAXPROCS   int      `json:"gomaxprocs"`
	FramesPerRep int      `json:"frames_per_stream_per_rep"`
	Reps         int      `json:"reps"`
	Correct      bool     `json:"correct"`
	Attempted    int      `json:"attempted"`
	Failed       int      `json:"failed"`
	Problems     []string `json:"problems,omitempty"`

	EndToEnd map[string]*measured `json:"end_to_end,omitempty"`
	PerLayer map[string]*measured `json:"per_layer,omitempty"`
}

// measured is one metric's value with what stands behind it: the raw
// per-repetition values and the number of samples the value summarizes.
type measured struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Better  string    `json:"better"`
	Bound   float64   `json:"bound,omitempty"`
	Reps    []float64 `json:"reps,omitempty"`
	Samples int       `json:"samples"`
}

type stringList []string

func (l *stringList) String() string     { return strings.Join(*l, ",") }
func (l *stringList) Set(v string) error { *l = append(*l, v); return nil }

type options struct {
	seed    uint64
	reps    int
	seconds float64
	e2e     bool // take the untraced repetitions' end-to-end section
	layers  bool // take the traced repetition's per-layer section
	outDir  string
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	if err := runMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func runMain(args []string) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var names stringList
	fs.Var(&names, "workload", "workload to run (repeatable; default: all four)")
	seed := fs.Uint64("seed", 11, "seed of the inputs: picks the window of its scene each stream serves")
	reps := fs.Int("reps", 3, "measured untraced repetitions per workload (the minimum when -seconds is set)")
	seconds := fs.Float64("seconds", 0, "keep taking untraced repetitions until this much time has been measured")
	traceFlag := fs.String("trace", "", "0/false: end-to-end section only; 1/true: per-layer section only; unset: both")
	out := fs.String("out", filepath.Join("benchmark", "out"), "directory for result.json, <workload>.trace.json and scratch files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *reps < 1 {
		return fmt.Errorf("-reps %d: need at least one repetition", *reps)
	}
	opts := options{seed: *seed, reps: *reps, seconds: *seconds, e2e: true, layers: true, outDir: *out}
	if *traceFlag != "" {
		traced, err := strconv.ParseBool(*traceFlag)
		if err != nil {
			return fmt.Errorf("-trace %q: want 0 or 1", *traceFlag)
		}
		opts.e2e, opts.layers = !traced, traced
	}
	selected := workloads
	if len(names) > 0 {
		selected = nil
		for _, n := range names {
			w, ok := findWorkload(n)
			if !ok {
				return fmt.Errorf("unknown workload %q", n)
			}
			selected = append(selected, w)
		}
	}

	doc := &document{
		Schema: "triplec-benchmark/1", Seed: opts.seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit,
	}
	var failed []string
	for _, w := range selected {
		if procs := w.gomaxprocs(); w.streams > procs {
			fmt.Fprintf(os.Stderr, "benchmark: %s runs %d closed-loop streams on %d cores; its tail will measure the Go scheduler\n",
				w.name, w.streams, procs)
		}
		res, err := runWorkload(w, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", w.name, err)
		}
		doc.Workloads = append(doc.Workloads, res)
		printResult(os.Stdout, res)
		if !res.Correct {
			failed = append(failed, w.name)
			for _, p := range res.Problems {
				fmt.Fprintf(os.Stderr, "benchmark: %s: %s\n", w.name, p)
			}
		}
	}
	if err := writeJSON(filepath.Join(opts.outDir, "result.json"), doc); err != nil {
		return err
	}
	if len(doc.Workloads) == 1 {
		// The driver's contract: one JSON object as the last line of output.
		if err := printDriverLine(os.Stdout, doc.Workloads[0]); err != nil {
			return err
		}
	}
	if len(failed) > 0 {
		return fmt.Errorf("correctness check failed on %s", strings.Join(failed, ", "))
	}
	return nil
}

// runWorkload takes one discarded warm-up repetition, the untraced measured
// repetitions (each on a freshly built server) and, for the per-layer
// section, one traced repetition.
func runWorkload(w workload, opts options) (*workloadResult, error) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(w.gomaxprocs()))
	in, err := makeInputs(w, opts.seed)
	if err != nil {
		return nil, err
	}
	res := &workloadResult{Name: w.name, Streams: w.streams, Size: w.size, GOMAXPROCS: w.gomaxprocs(), FramesPerRep: w.frames, Correct: true}
	take := func(traced bool) (*repetition, error) {
		rep, err := runRepetition(w, in, traced, opts.outDir)
		runtime.GC() // the previous repetition's retained output frames must not weigh on the next one
		if err != nil {
			return nil, err
		}
		res.Attempted += rep.attempted
		res.Failed += rep.failed
		if len(rep.problems) > 0 {
			res.Correct = false
			res.Problems = append(res.Problems, rep.problems...)
		}
		return rep, nil
	}

	warm, err := runRepetition(w, in, false, opts.outDir) // discarded, except for its set-up time
	runtime.GC()
	if err != nil {
		return nil, err
	}
	setups := []float64{warm.values["setup_s"]}

	minReps := opts.reps
	if !opts.e2e {
		minReps = 3 // only the baseline trace.overhead_frac is taken against
	}
	var untraced []*repetition
	start := time.Now()
	for len(untraced) < minReps || (opts.e2e && time.Since(start).Seconds() < opts.seconds) {
		rep, err := take(false)
		if err != nil {
			return nil, err
		}
		untraced = append(untraced, rep)
		setups = append(setups, rep.values["setup_s"])
	}
	res.Reps = len(untraced)

	if opts.e2e {
		res.EndToEnd = map[string]*measured{}
		var service, latency []float64
		for _, rep := range untraced {
			service = append(service, rep.service...)
			latency = append(latency, rep.latency...)
		}
		for _, d := range endToEnd {
			m := &measured{Unit: d.unit, Better: d.better, Bound: d.bound, Samples: len(untraced)}
			for _, rep := range untraced {
				m.Reps = append(m.Reps, rep.values[d.name])
			}
			if d.name == "setup_s" {
				m.Reps, m.Samples = setups, len(setups)
			}
			m.Value = median(m.Reps)
			if p, ok := pooled[d.name]; ok {
				samples := service
				if p.modeled {
					samples = latency
				}
				m.Value, m.Samples = percentile(samples, p.q), len(samples)
			}
			res.EndToEnd[d.name] = m
		}
	}

	if opts.layers {
		rep, err := take(true)
		if err != nil {
			return nil, err
		}
		if err := rep.spans.write(filepath.Join(opts.outDir, w.name+".trace.json"), w.name, opts.seed); err != nil {
			return nil, err
		}
		var fps []float64
		for _, u := range untraced {
			fps = append(fps, u.values["frames_per_s"])
		}
		base := median(fps)
		rep.layers["trace.overhead_frac"] = sample{(base - rep.values["frames_per_s"]) / base, len(fps)}
		rep.layers["synth.gen_us_per_frame"] = sample{in.genUsPer, w.streams * w.k}
		res.PerLayer = map[string]*measured{}
		for _, d := range perLayer {
			s := rep.layers[d.name] // a layer that is not in this workload's path reads zero
			if !finite(s.value) {
				res.Correct = false
				res.Problems = append(res.Problems, fmt.Sprintf("%s is not finite (%v)", d.name, s.value))
				s.value = 0
			}
			res.PerLayer[d.name] = &measured{Value: s.value, Unit: d.unit, Better: d.better, Samples: s.n}
		}
	}
	return res, nil
}

// printResult prints every metric as `workload metric value unit`.
func printResult(w io.Writer, res *workloadResult) {
	for _, d := range endToEnd {
		if m, ok := res.EndToEnd[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Name, d.name, m.Value, m.Unit)
		}
	}
	for _, d := range perLayer {
		if m, ok := res.PerLayer[d.name]; ok {
			fmt.Fprintf(w, "%s %s %.6g %s\n", res.Name, d.name, m.Value, m.Unit)
		}
	}
}

// printDriverLine prints the one-object summary the benchmark driver reads.
func printDriverLine(w io.Writer, res *workloadResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for _, section := range []map[string]*measured{res.EndToEnd, res.PerLayer} {
		for name, m := range section {
			line.Metrics[name] = value{m.Value, m.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDocument(path string) (*document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(doc.Workloads) == 0 {
		return nil, errors.New(path + ": no workloads in document")
	}
	return &doc, nil
}
