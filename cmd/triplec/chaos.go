package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"

	"triplec/internal/experiments"
	"triplec/internal/fault"
	"triplec/internal/metrics"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/span"
	"triplec/internal/stream"
	"triplec/internal/tasks"
)

// runChaos implements the `triplec chaos` subcommand: the multi-stream
// serving stack runs under a deterministic fault plan (seeded task panics,
// stuck-task hangs, latency spikes and frame corruption on the first
// -faulted streams) with supervision, watchdogs and graceful degradation
// enabled, then reports per-stream survival statistics. The command exits
// non-zero if the process fails to contain the faults: an unrecovered
// panic aborts the process outright, a broken frame-accounting invariant,
// an impacted healthy stream, or a healthy-stream deadline-miss rate above
// -max-miss-rate all turn into errors.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	streams := fs.Int("streams", 4, "number of concurrent streams")
	faulted := fs.Int("faulted", 2, "how many of the streams receive injected faults")
	frames := fs.Int("frames", 500, "frames to serve per stream")
	seed := fs.Uint64("seed", 2026, "fault-plan and synthetic-sequence seed")
	train := fs.Int("train", 4, "training sequences")
	cores := fs.Int("cores", 0, "modeled machine cores to arbitrate (0 = platform default)")
	workers := fs.Int("workers", 0, "host worker-pool size (0 = streams+2)")
	panicProb := fs.Float64("panic-prob", 0.05, "per-task-invocation panic probability on faulted streams")
	hangProb := fs.Float64("hang-prob", 0.02, "per-task-invocation stuck-task probability on faulted streams")
	spikeProb := fs.Float64("spike-prob", 0, "per-task-invocation latency-spike probability on faulted streams")
	corruptProb := fs.Float64("corrupt-prob", 0.01, "per-frame pixel-corruption probability on faulted streams")
	hangMs := fs.Float64("hang-ms", 800, "stuck-task duration in ms (past -stall-ms it poisons the engine)")
	spikeMs := fs.Float64("spike-ms", 25, "latency-spike duration in ms")
	watchdogMs := fs.Float64("watchdog-ms", 250, "per-frame wall-clock deadline before a frame is abandoned")
	stallMs := fs.Float64("stall-ms", 400, "wall-clock limit before an unfinished frame poisons the engine")
	maxRestarts := fs.Int("max-restarts", 3, "consecutive no-progress crashes before quarantine")
	restartBudget := fs.Int("restart-budget", 4, "total restarts per stream before quarantine")
	maxMissRate := fs.Float64("max-miss-rate", 1, "fail if a healthy stream's deadline-miss rate exceeds this")
	jsonOut := fs.Bool("json", false, "emit the survival stats as JSON on stdout (progress goes to stderr)")
	traceDir := fs.String("trace-dir", "", "enable span tracing; write triggered flight-recorder dumps into this directory")
	breaker := fs.Bool("breaker", false, "gate optional tasks on faulted streams behind per-task circuit breakers")
	challenger := fs.String("challenger", "",
		"run guarded predictor promotion under the chaos: miscal (deliberately miscalibrated challenger) or a shadow backend name; containment fails if the challenger is still steering when the run ends or was never rolled back")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streams < 1 {
		return fmt.Errorf("chaos: need at least one stream, got %d", *streams)
	}
	if *faulted < 0 || *faulted > *streams {
		return fmt.Errorf("chaos: -faulted %d outside [0, %d]", *faulted, *streams)
	}
	// With -json, stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	out := io.Writer(os.Stdout)
	if *jsonOut {
		out = os.Stderr
	}

	inj, err := fault.New(fault.Config{
		Seed:        *seed,
		Defaults:    fault.Probs{Panic: *panicProb, Hang: *hangProb, Spike: *spikeProb},
		CorruptProb: *corruptProb,
		HangMs:      *hangMs,
		SpikeMs:     *spikeMs,
	})
	if err != nil {
		return err
	}

	// Span tracing: the injector reports every fired fault into the ring,
	// and (with -breaker) each faulted stream's circuit breaker reports its
	// trips, so a dump shows the fault that caused the frame it ruined.
	var flight *span.FlightRecorder
	if *traceDir != "" {
		flight, err = span.NewFlightRecorder(*traceDir, span.DefaultTriggers())
		if err != nil {
			return err
		}
		rec := flight.Recorder()
		inj.SetOnFault(func(si int, task tasks.Name, frameIdx int, kind fault.Kind) {
			rec.Emit(span.Event{
				Kind: span.KindFault, Stream: int32(si), Frame: int32(frameIdx),
				Task: int32(tasks.IndexOf(task)), Scenario: -1, Arg0: float64(kind),
			})
		})
	}

	study := experiments.ServingStudy(*train)

	// Guarded promotion under chaos: every stream gets a shadow board
	// racing the roster (plus the deliberately miscalibrated challenger for
	// -challenger miscal), and the controller canaries the challenger while
	// the faults fly. The containment checks below demand it got caught.
	var ctl *promote.Controller
	if *challenger != "" {
		name := *challenger
		if name == "miscal" {
			name = shadow.BackendMiscal
		}
		var err error
		if ctl, err = promote.NewController(promote.Config{Challenger: name}); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}

	fmt.Fprintf(out, "training Triple-C on %d sequences x %d frames...\n", study.TrainSeqs, study.TrainFrames)
	cfgs := make([]stream.Config, *streams)
	for i := range cfgs {
		var hook func(tasks.Name, int)
		if i < *faulted {
			hook = inj.ForStream(i).BeforeTask
		}
		var gate *fault.Breaker
		if *breaker && i < *faulted {
			gate, err = fault.NewBreaker(fault.BreakerConfig{})
			if err != nil {
				return err
			}
			if flight != nil {
				rec, si := flight.Recorder(), i
				gate.OnTrip = func(task tasks.Name) {
					rec.Emit(span.Event{
						Kind: span.KindBreakerTrip, Stream: int32(si), Frame: -1,
						Task: int32(tasks.IndexOf(task)), Scenario: -1,
					})
				}
			}
		}
		// The injector hook and breaker gate go onto the stream's engine and,
		// when the supervisor rebuilds the engine+manager pair after a stall
		// (around the same stream-private predictor), onto the replacement.
		wire := func(eng *pipeline.Engine) {
			if hook != nil {
				eng.SetTaskHook(hook)
			}
			if gate != nil {
				eng.SetGate(gate)
			}
		}
		st, err := study.ServedStream(*seed, i)
		if err != nil {
			return err
		}
		p := st.Manager.Predictor()
		wire(st.Engine)
		name := fmt.Sprintf("healthy%d", i-*faulted)
		if i < *faulted {
			st.Source = inj.ForStream(i).WrapSource(st.Source)
			name = fmt.Sprintf("faulted%d", i)
		}
		cfgs[i] = stream.Config{
			Name:        name,
			Engine:      st.Engine,
			Manager:     st.Manager,
			Source:      st.Source,
			FramePixels: study.FramePixels(),
			Rebuild: func() (*pipeline.Engine, *sched.Manager, error) {
				eng, mgr, err := study.ManagedEngine(p)
				if err == nil {
					wire(eng)
				}
				return eng, mgr, err
			},
		}
		if ctl != nil {
			board, err := shadow.NewStreamBoard(name, p, st.Corpus, *challenger == "miscal")
			if err != nil {
				return err
			}
			cfgs[i].Shadow = board
		}
	}

	hostWorkers := *workers
	if hostWorkers == 0 {
		hostWorkers = *streams + 2 // stalled frames hold a worker; keep slack
	}
	reg := metrics.NewRegistry()
	srv, err := stream.NewServer(stream.ServerConfig{
		ModelCores:    *cores,
		HostWorkers:   hostWorkers,
		Supervise:     true,
		WatchdogMs:    *watchdogMs,
		StallMs:       *stallMs,
		MaxRestarts:   *maxRestarts,
		RestartBudget: *restartBudget,
		Degrade:       true,
		Metrics:       reg,
		Flight:        flight,
		Promote:       ctl,
	}, cfgs)
	if err != nil {
		return err
	}
	if ctl != nil {
		if err := ctl.EnableMetrics(reg); err != nil {
			return err
		}
	}

	fmt.Fprintf(out, "chaos: %d streams (%d faulted) x %d frames on %d host cores, plan panic=%.0f%% hang=%.0f%% spike=%.0f%% corrupt=%.0f%%\n",
		*streams, *faulted, *frames, runtime.GOMAXPROCS(0),
		100**panicProb, 100**hangProb, 100**spikeProb, 100**corruptProb)
	res, runErr := srv.Run(*frames)
	if len(res.Streams) == 0 {
		return runErr
	}

	counts := inj.Counts()
	fmt.Fprintf(out, "\ninjected faults: %v\n\n", counts)
	fmt.Fprintf(out, "%-10s %9s %7s %7s %9s %7s %8s %11s %6s %11s %s\n",
		"stream", "processed", "skipped", "failed", "abandoned", "misses", "restarts", "recover(ms)", "qual", "missrate", "state")
	var failures []string
	report := chaosReport{
		Seed: *seed, Streams: make([]chaosStreamReport, 0, len(res.Streams)),
		Faults: chaosFaults{
			Panics: counts.Panics, Hangs: counts.Hangs,
			Spikes: counts.Spikes, Corrupted: counts.Corrupted,
		},
		AggregateFPS: res.AggregateFPS, WallMs: res.WallMs,
		Rebalances: res.Rebalances, FinalBudgets: res.FinalBudgets,
	}
	for i, s := range res.Streams {
		st := s.Stats
		state := "ok"
		if st.Quarantined {
			state = "quarantined"
		} else if s.Err != nil {
			state = "error"
		}
		fmt.Fprintf(out, "%-10s %9d %7d %7d %9d %7d %8d %11.1f %6d %11.3f %s\n",
			st.Name, st.Processed, st.Skipped, st.Failed, st.Abandoned, st.DeadlineMisses,
			st.Restarts, st.MeanRecoveryMs, int(st.FinalQuality), st.MissRate(), state)
		sr := chaosStreamReport{
			Name: st.Name, Healthy: i >= *faulted, State: state,
			Offered: st.Offered, Processed: st.Processed, Skipped: st.Skipped,
			Failed: st.Failed, Abandoned: st.Abandoned,
			DeadlineMisses: st.DeadlineMisses, MissRate: st.MissRate(),
			Restarts: st.Restarts, MeanRecoveryMs: st.MeanRecoveryMs,
			Quality: int(st.FinalQuality), Quarantined: st.Quarantined,
		}
		if s.Err != nil {
			sr.Error = s.Err.Error()
		}
		report.Streams = append(report.Streams, sr)

		if got := st.Processed + st.Skipped + st.Failed + st.Abandoned; got != st.Offered {
			failures = append(failures, fmt.Sprintf(
				"%s: frame accounting broken: %d+%d+%d+%d != %d offered",
				st.Name, st.Processed, st.Skipped, st.Failed, st.Abandoned, st.Offered))
		}
		if i >= *faulted { // a healthy stream must ride out the chaos untouched
			if st.Quarantined || s.Err != nil {
				failures = append(failures, fmt.Sprintf("healthy stream %s impacted: err=%v", st.Name, s.Err))
			}
			if rate := st.MissRate(); rate > *maxMissRate {
				failures = append(failures, fmt.Sprintf(
					"healthy stream %s miss rate %.3f exceeds bound %.3f", st.Name, rate, *maxMissRate))
			}
		}
	}
	fmt.Fprintf(out, "\naggregate: %.1f frames/s over %.0f ms wall clock, %d rebalances, final core split %v\n",
		res.AggregateFPS, res.WallMs, res.Rebalances, res.FinalBudgets)

	if ctl != nil {
		st := ctl.Status()
		fmt.Fprintf(out, "promotion under chaos: state=%s transitions=%d\n", st.State, st.Transitions)
		if err := ctl.WriteLog(out); err != nil {
			return err
		}
		report.Promotion = &st
		// Containment: a challenger that is wrong for this workload must be
		// caught — fleet-wide promotion, or never rolling back at all, means
		// the guardrails failed. Ending mid-canary is fine: the canary is
		// the probation stage, capped at CanaryFrac of the streams, and the
		// rollback requirement below proves the guards fire on it.
		if final := ctl.State(); final == promote.StatePromoted {
			failures = append(failures, fmt.Sprintf(
				"challenger promoted fleet-wide under chaos: final promotion state %s", final))
		}
		caught := false
		for _, t := range ctl.Transitions() {
			if t.To == promote.StateRolledBack || t.To == promote.StateQuarantined {
				caught = true
				break
			}
		}
		if !caught {
			failures = append(failures, "challenger was never rolled back or quarantined under chaos")
		}
	}

	if flight != nil {
		report.Dumps = flight.Dumps()
		fmt.Fprintf(out, "flight recorder: %d dump(s) in %s\n", len(report.Dumps), flight.Dir())
		for _, d := range report.Dumps {
			fmt.Fprintf(out, "  %s  reason=%s stream=%d frame=%d frames=%d events=%d\n",
				d.File, d.Reason, d.Stream, d.Frame, d.Frames, d.Events)
		}
		if err := flight.Err(); err != nil {
			failures = append(failures, fmt.Sprintf("flight recorder: %v", err))
		}
	}
	if runErr != nil {
		fmt.Fprintf(out, "run result: %v\n", runErr)
	}
	report.Failures = failures
	report.Contained = len(failures) == 0
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(report); err != nil {
			return err
		}
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintln(out, "FAIL:", f)
		}
		return fmt.Errorf("chaos: %d containment check(s) failed", len(failures))
	}
	fmt.Fprintln(out, "chaos run contained: no unrecovered panics, healthy streams within SLO")
	return nil
}

// chaosReport is the -json output document: the survival stats the text
// table prints, machine-readable for CI assertions.
type chaosReport struct {
	Seed         uint64              `json:"seed"`
	Contained    bool                `json:"contained"`
	Failures     []string            `json:"failures,omitempty"`
	Streams      []chaosStreamReport `json:"streams"`
	Faults       chaosFaults         `json:"faults"`
	AggregateFPS float64             `json:"aggregate_fps"`
	WallMs       float64             `json:"wall_ms"`
	Rebalances   int                 `json:"rebalances"`
	FinalBudgets []int               `json:"final_budgets"`
	Dumps        []span.DumpInfo     `json:"dumps,omitempty"`
	Promotion    *promote.Status     `json:"promotion,omitempty"`
}

type chaosStreamReport struct {
	Name           string  `json:"name"`
	Healthy        bool    `json:"healthy"`
	State          string  `json:"state"`
	Offered        int     `json:"offered"`
	Processed      int     `json:"processed"`
	Skipped        int     `json:"skipped"`
	Failed         int     `json:"failed"`
	Abandoned      int     `json:"abandoned"`
	DeadlineMisses int     `json:"deadline_misses"`
	MissRate       float64 `json:"miss_rate"`
	Restarts       int     `json:"restarts"`
	MeanRecoveryMs float64 `json:"mean_recovery_ms"`
	Quality        int     `json:"quality"`
	Quarantined    bool    `json:"quarantined"`
	Error          string  `json:"error,omitempty"`
}

type chaosFaults struct {
	Panics    uint64 `json:"panics"`
	Hangs     uint64 `json:"hangs"`
	Spikes    uint64 `json:"spikes"`
	Corrupted uint64 `json:"corrupted"`
}
