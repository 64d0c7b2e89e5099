// Command triplec runs the full Triple-C loop on a synthetic angiography
// sequence: it trains the predictor on a profiling corpus, then processes a
// test sequence twice — once with the straightforward serial mapping and
// once under the prediction-driven runtime manager — and prints the
// per-frame latency comparison and the Fig. 7 summary.
//
// Usage:
//
//	triplec [-frames n] [-seed s] [-train n] [-quiet]
//	triplec serve [-streams n] [-frames n] [-cores n] [-csv out.csv]
//	  [-metrics-addr host:port] [-linger d] [-metrics-csv out.csv]
//	  [-budget-ms ms] [-trace-dir dir] [-trace-relerr r]
//	triplec chaos [-streams n] [-faulted n] [-frames n] [-seed s]
//	  [-panic-prob p] [-hang-prob p] [-max-miss-rate r] [-json]
//	  [-trace-dir dir] [-breaker]
//	triplec bench [-short] [-out BENCH_6.json] [-min-speedup 1.0]
//	triplec shadow [-short] [-seed s] [-seqs n] [-frames n] [-folds k]
//	  [-warmup n] [-out report.json] [-min-acc 0.70] [-quiet]
//	triplec promote [-streams n] [-frames n] [-seed s] [-challenger name]
//	  [-canary-frac f] [-guard-miss-rate r] [-spike-prob p] [-out log.txt]
//	  [-expect state] [-json]
//	triplec slo [-streams n] [-frames n] [-seed s] [-spike]
//	  [-spike-from n] [-spike-to n] [-expect-page] [-json] [-out report.json]
//	triplec trace dump.json
//
// The serve subcommand runs the concurrent multi-stream serving layer: N
// independent streams share the modeled machine under the global core
// arbiter (see internal/stream). With -metrics-addr it exposes the live
// telemetry layer while serving: GET /metrics (Prometheus text format),
// GET /healthz (per-stream liveness and miss rate as JSON) and the
// net/http/pprof handlers under /debug/pprof/; -linger keeps the endpoints
// up after the run and -metrics-csv samples every instrument into a
// trace CSV.
//
// The chaos subcommand runs the same serving stack under a deterministic
// fault plan (see internal/fault): seeded task panics, stuck-task hangs,
// latency spikes and frame corruption hit the first -faulted streams while
// supervision, per-frame watchdogs and graceful degradation contain the
// damage. It prints per-stream survival statistics (frames served, failed
// and abandoned, deadline-miss rate, restarts, mean time to recover) and
// exits non-zero if a fault escaped containment; -json emits the stats as
// machine-readable JSON on stdout instead.
//
// The bench subcommand runs the fixed multi-stream workload matrix through
// the serial and software-pipelined paths (internal/bench) and writes the
// machine-readable trajectory point BENCH_6.json: per-scenario fps, p50/p99
// modeled latency, measured pipelining speedup and the analytical
// estimator's prediction (internal/mapping). It exits non-zero on schema
// or speedup-floor violations, making it the CI perf-regression gate.
//
// The shadow subcommand runs the offline predictor bake-off: the deployed
// EWMA+Markov predictor plus the alternative backends (order-2 Markov,
// online ridge regression, P90 quantile) race on a cross-validated
// synthetic replay and the per-backend accuracy scoreboard is printed as
// text (JSON with -out). Same-seed runs produce byte-identical reports.
// `serve -shadow` races the same roster live while serving: the scoreboard
// is exposed on /debug/predictorz and as per-backend /metrics families,
// with zero influence on scheduling. See internal/shadow.
//
// The promote subcommand replays the guarded predictor-promotion state
// machine (internal/promote) deterministically: a challenger that beats the
// deployed baseline on rolling shadow regret is canaried onto a fraction of
// the streams, guardrail SLOs (rolling miss rate, accuracy, bias, scenario
// hit rate) gate the fleet-wide switchover, and a breach rolls the fleet
// back to the baseline with exponential cooldown. Same-flag runs produce
// byte-identical transition logs. `serve -predictor auto` runs the same
// controller live: per-stream steering shows as the /healthz "predictor"
// field, the fleet state as healthReport "promotion" and the
// triplec_promote_* metric families.
//
// The slo subcommand replays the frame-latency cause ledger and the
// multi-window multi-burn-rate SLO engine (internal/slo) deterministically:
// every frame's latency overage is decomposed exactly into causes (compute,
// core-wait, scenario-miss replan, rebalance stall, degradation, fault
// recovery, pipelining drain) and two SLOs — deadline hit rate and
// within-25% prediction accuracy — are tracked over fast/slow frame windows
// with Google-SRE paging and ticket burn thresholds. Same-flag runs produce
// byte-identical JSON reports; -spike runs the fault-spike page drill and
// -expect-page gates the exit code on it. `serve -slo` runs the same
// tracker live: the status rides in /healthz as the "slo" block, the
// triplec_slo_* metric families are exported, and /debug/sloz renders the
// live scoreboard; -slo-exemplars links latency-histogram buckets to
// flight-recorder dumps via OpenMetrics exemplars.
//
// Both serving subcommands accept -trace-dir to enable the per-frame span
// tracing layer (internal/span): an always-on flight recorder whose
// triggered dumps (deadline miss, task panic, quarantine, prediction
// error) land in the directory as Chrome trace-event JSON, loadable in
// Perfetto. The trace subcommand renders such a dump as a text waterfall
// with per-task prediction-error attribution.
package main

import (
	"flag"
	"fmt"
	"os"

	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/sched"
	"triplec/internal/stats"
	"triplec/internal/synth"
	"triplec/internal/trace"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "serve" {
		if err := runServe(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec serve:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "chaos" {
		if err := runChaos(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec chaos:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		if err := runBench(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec bench:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "shadow" {
		if err := runShadow(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec shadow:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "promote" {
		if err := runPromote(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec promote:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "slo" {
		if err := runSlo(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec slo:", err)
			os.Exit(1)
		}
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "trace" {
		if err := runTrace(os.Args[2:]); err != nil {
			fmt.Fprintln(os.Stderr, "triplec trace:", err)
			os.Exit(1)
		}
		return
	}
	frames := flag.Int("frames", 200, "frames to process")
	seed := flag.Uint64("seed", 7, "synthetic-sequence seed")
	train := flag.Int("train", 6, "training sequences")
	quiet := flag.Bool("quiet", false, "summary only, no per-frame rows")
	csvPath := flag.String("csv", "", "write the latency series to this CSV file")
	modelPath := flag.String("save-model", "", "write the trained predictor as JSON")
	replayDir := flag.String("replay", "", "drive the test run from a synthgen/clinical PGM directory instead of a synthetic sequence")
	sticky := flag.Bool("sticky", false, "keep mappings across frames when they still fit (hysteresis)")
	adaptive := flag.Bool("adaptive", false, "adapt the latency budget to a quantile of recent latencies")
	flag.Parse()

	opts := runOpts{
		frames: *frames, seed: *seed, train: *train, quiet: *quiet,
		csvPath: *csvPath, modelPath: *modelPath, replayDir: *replayDir,
		sticky: *sticky, adaptive: *adaptive,
	}
	if err := run(opts); err != nil {
		fmt.Fprintln(os.Stderr, "triplec:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	frames             int
	seed               uint64
	train              int
	quiet              bool
	csvPath, modelPath string
	replayDir          string
	sticky, adaptive   bool
}

func run(o runOpts) error {
	frames, seed, train := o.frames, o.seed, o.train
	quiet, csvPath, modelPath, replayDir := o.quiet, o.csvPath, o.modelPath, o.replayDir
	study := experiments.DefaultStudy()
	study.TrainSeqs = train
	study.Seed = seed

	fmt.Printf("training Triple-C on %d sequences x %d frames...\n", study.TrainSeqs, study.TrainFrames)
	p, err := study.TrainPredictor()
	if err != nil {
		return err
	}
	fmt.Println(p.ModelSummary())

	var src func(int) *frame.Frame
	if replayDir != "" {
		rp, err := synth.LoadReplay(replayDir)
		if err != nil {
			return err
		}
		fmt.Printf("replaying %d frames from %s\n", rp.Len(), replayDir)
		src = func(i int) *frame.Frame {
			f, _ := rp.Frame(i)
			return f
		}
	} else {
		seq, err := study.Sequence(seed + 424242)
		if err != nil {
			return err
		}
		src = experiments.Source(seq)
	}

	straightEng, err := study.Engine()
	if err != nil {
		return err
	}
	_, straight, err := sched.RunStraightforward(straightEng, frames, src)
	if err != nil {
		return err
	}

	mgr, err := sched.NewManager(p, study.Arch)
	if err != nil {
		return err
	}
	mgr.Sticky = o.sticky
	if o.adaptive {
		mgr.Budgeter = sched.NewBudgetController()
	}
	managedEng, err := study.Engine()
	if err != nil {
		return err
	}
	managed, err := sched.RunManaged(managedEng, mgr, frames, src, study.FramePixels())
	if err != nil {
		return err
	}

	if !quiet {
		fmt.Printf("%8s %14s %14s %14s %s\n", "frame", "straight (ms)", "managed (ms)", "predicted", "mapping")
		for i := 0; i < frames; i++ {
			fmt.Printf("%8d %14.1f %14.1f %14.1f %s\n",
				i, straight[i], managed.Output[i], managed.Decisions[i].PredictedMs,
				managed.Decisions[i].Mapping)
		}
	}

	if csvPath != "" {
		tr := trace.New()
		predicted := make([]float64, frames)
		for i, d := range managed.Decisions {
			predicted[i] = d.PredictedMs
		}
		for _, col := range []struct {
			name string
			vals []float64
		}{
			{"straightforward_ms", straight},
			{"managed_processing_ms", managed.Processing},
			{"managed_output_ms", managed.Output},
			{"predicted_ms", predicted},
		} {
			if err := tr.Add(col.name, col.vals); err != nil {
				return err
			}
		}
		file, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := tr.WriteCSV(file); err != nil {
			return err
		}
		fmt.Println("wrote", csvPath)
	}

	if modelPath != "" {
		file, err := os.Create(modelPath)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := p.Save(file); err != nil {
			return err
		}
		fmt.Println("wrote", modelPath)
	}

	cmp, err := sched.Summarize(straight, managed)
	if err != nil {
		return err
	}
	fmt.Printf("\nstraightforward mapping: %.0f..%.0f ms, worst-vs-avg %.0f%%\n",
		stats.Min(straight), stats.Max(straight), 100*cmp.StraightWorstVsAvg)
	fmt.Printf("semi-auto parallel:      budget %.1f ms, worst-vs-avg %.0f%%, overruns %.0f%%\n",
		cmp.BudgetMs, 100*cmp.ManagedWorstVsAvg, 100*cmp.OverrunRate)
	fmt.Printf("jitter reduction:        %.0f%%\n", 100*cmp.JitterReduction)
	return nil
}
