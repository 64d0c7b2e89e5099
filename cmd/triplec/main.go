// Command triplec runs the full Triple-C loop on a synthetic angiography
// sequence: it trains the predictor on a profiling corpus, then processes a
// test sequence twice — once with the straightforward serial mapping and
// once under the prediction-driven runtime manager — and prints the
// per-frame latency comparison and the Fig. 7 summary.
//
// Usage:
//
//	triplec [flags]
//	triplec serve | chaos | bench | shadow | promote | slo [flags]
//	triplec trace [flags] dump.json
//
// `triplec <subcommand> -h` lists every flag of a subcommand with its
// default (serve has 24, chaos 22).
//
// serve and chaos fill one experiments.Deployment from their flags, build
// it, and assemble the result into a stream.Server; the promote and slo
// drills build the same value and replay it deterministically on the
// experiments.Fleet. A deployment is validated before anything trains, so
// a bad run size fails at once with one error line.
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
	"io"
	"os"

	"triplec/internal/experiments"
	"triplec/internal/frame"
	"triplec/internal/sched"
	"triplec/internal/stats"
	"triplec/internal/synth"
	"triplec/internal/trace"
)

// commands maps each subcommand to its runner, which writes its report to
// stdout; `triplec` with no subcommand runs run.
var commands = map[string]func(args []string, stdout io.Writer) error{
	"serve":   runServe,
	"chaos":   runChaos,
	"bench":   runBench,
	"shadow":  runShadow,
	"promote": runPromote,
	"slo":     runSlo,
	"trace":   runTrace,
}

func main() {
	if err := dispatch(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// dispatch runs the subcommand args[0] names, or run when it names none,
// and prefixes a failure with the command's name.
func dispatch(args []string, stdout io.Writer) error {
	name, cmd := "triplec", run
	if len(args) > 0 && commands[args[0]] != nil {
		name, cmd, args = "triplec "+args[0], commands[args[0]], args[1:]
	}
	if err := cmd(args, stdout); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return nil
}

// run trains the predictor, then processes one test sequence under the
// straightforward serial mapping and under the runtime manager.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet(os.Args[0], flag.ExitOnError)
	frames := fs.Int("frames", 200, "frames to process")
	study := experiments.DefaultStudy()
	fs.Uint64Var(&study.Seed, "seed", 7, "synthetic-sequence seed")
	fs.IntVar(&study.TrainSeqs, "train", 6, "training sequences")
	quiet := fs.Bool("quiet", false, "summary only, no per-frame rows")
	csvPath := fs.String("csv", "", "write the latency series to this CSV file")
	modelPath := fs.String("save-model", "", "write the trained predictor as JSON")
	replayDir := fs.String("replay", "", "drive the test run from a synthgen/clinical PGM directory instead of a synthetic sequence")
	sticky := fs.Bool("sticky", false, "keep mappings across frames when they still fit (hysteresis)")
	adaptive := fs.Bool("adaptive", false, "adapt the latency budget to a quantile of recent latencies")
	fs.Parse(args) // ExitOnError: a bad flag exits 2, -h exits 0

	fmt.Fprintf(stdout, "training Triple-C on %d sequences x %d frames...\n", study.TrainSeqs, study.TrainFrames)
	p, err := study.TrainPredictor()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, p.ModelSummary())

	var src func(int) *frame.Frame
	if *replayDir != "" {
		rp, err := synth.LoadReplay(*replayDir)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "replaying %d frames from %s\n", rp.Len(), *replayDir)
		src = func(i int) *frame.Frame {
			f, _ := rp.Frame(i)
			return f
		}
	} else {
		seq, err := study.Sequence(study.Seed + 424242)
		if err != nil {
			return err
		}
		src = experiments.Source(seq)
	}

	straightEng, err := study.Engine()
	if err != nil {
		return err
	}
	_, straight, err := sched.RunStraightforward(straightEng, *frames, src)
	if err != nil {
		return err
	}

	managedEng, mgr, err := study.ManagedEngine(p)
	if err != nil {
		return err
	}
	mgr.Sticky = *sticky
	if *adaptive {
		mgr.Budgeter = sched.NewBudgetController()
	}
	managed, err := sched.RunManaged(managedEng, mgr, *frames, src, study.FramePixels())
	if err != nil {
		return err
	}

	if !*quiet {
		fmt.Fprintf(stdout, "%8s %14s %14s %14s %s\n", "frame", "straight (ms)", "managed (ms)", "predicted", "mapping")
		for i := 0; i < *frames; i++ {
			fmt.Fprintf(stdout, "%8d %14.1f %14.1f %14.1f %s\n",
				i, straight[i], managed.Output[i], managed.Decisions[i].PredictedMs,
				managed.Decisions[i].Mapping)
		}
	}

	if *csvPath != "" {
		tr := trace.New()
		predicted := make([]float64, *frames)
		for i, d := range managed.Decisions {
			predicted[i] = d.PredictedMs
		}
		names := []string{"straightforward_ms", "managed_processing_ms", "managed_output_ms", "predicted_ms"}
		for i, col := range [][]float64{straight, managed.Processing, managed.Output, predicted} {
			if err := tr.Add(names[i], col); err != nil {
				return err
			}
		}
		if err := writeFile(*csvPath, tr.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}

	if *modelPath != "" {
		if err := writeFile(*modelPath, p.Save); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *modelPath)
	}

	cmp, err := sched.Summarize(straight, managed)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\nstraightforward mapping: %.0f..%.0f ms, worst-vs-avg %.0f%%\n",
		stats.Min(straight), stats.Max(straight), 100*cmp.StraightWorstVsAvg)
	fmt.Fprintf(stdout, "semi-auto parallel:      budget %.1f ms, worst-vs-avg %.0f%%, overruns %.0f%%\n",
		cmp.BudgetMs, 100*cmp.ManagedWorstVsAvg, 100*cmp.OverrunRate)
	fmt.Fprintf(stdout, "jitter reduction:        %.0f%%\n", 100*cmp.JitterReduction)
	return nil
}
