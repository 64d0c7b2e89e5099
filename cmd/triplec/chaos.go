package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"

	"triplec/internal/experiments"
	"triplec/internal/fault"
	"triplec/internal/promote"
	"triplec/internal/span"
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
func runChaos(args []string, stdout io.Writer) error {
	d := experiments.Deployment{
		Metrics: true, Supervise: true, Degrade: true,
		TraceRelErr: span.DefaultTriggers().RelErr,
		Fault:       &fault.Config{},
	}
	fs := flag.NewFlagSet("chaos", flag.ContinueOnError)
	fs.IntVar(&d.Streams, "streams", 4, "number of concurrent streams")
	fs.IntVar(&d.Faulted, "faulted", 2, "how many of the streams receive injected faults")
	fs.IntVar(&d.Frames, "frames", 500, "frames to serve per stream")
	fs.Uint64Var(&d.Seed, "seed", 2026, "fault-plan and synthetic-sequence seed")
	fs.IntVar(&d.Train, "train", 4, "training sequences")
	fs.IntVar(&d.Cores, "cores", 0, "modeled machine cores to arbitrate (0 = platform default)")
	fs.IntVar(&d.Workers, "workers", 0, "host worker-pool size (0 = streams+2)")
	fs.Float64Var(&d.Fault.Defaults.Panic, "panic-prob", 0.05, "per-task-invocation panic probability on faulted streams")
	fs.Float64Var(&d.Fault.Defaults.Hang, "hang-prob", 0.02, "per-task-invocation stuck-task probability on faulted streams")
	fs.Float64Var(&d.Fault.Defaults.Spike, "spike-prob", 0, "per-task-invocation latency-spike probability on faulted streams")
	fs.Float64Var(&d.Fault.CorruptProb, "corrupt-prob", 0.01, "per-frame pixel-corruption probability on faulted streams")
	fs.Float64Var(&d.Fault.HangMs, "hang-ms", 800, "stuck-task duration in ms (past -stall-ms it poisons the engine)")
	fs.Float64Var(&d.Fault.SpikeMs, "spike-ms", 25, "latency-spike duration in ms")
	fs.Float64Var(&d.WatchdogMs, "watchdog-ms", 250, "per-frame wall-clock deadline before a frame is abandoned")
	fs.Float64Var(&d.StallMs, "stall-ms", 400, "wall-clock limit before an unfinished frame poisons the engine")
	fs.IntVar(&d.MaxRestarts, "max-restarts", 3, "consecutive no-progress crashes before quarantine")
	fs.IntVar(&d.RestartBudget, "restart-budget", 4, "total restarts per stream before quarantine")
	maxMissRate := fs.Float64("max-miss-rate", 1, "fail if a healthy stream's deadline-miss rate exceeds this")
	jsonOut := fs.Bool("json", false, "emit the survival stats as JSON on stdout (progress goes to stderr)")
	fs.StringVar(&d.TraceDir, "trace-dir", "", "enable span tracing; write triggered flight-recorder dumps into this directory")
	fs.BoolVar(&d.Breaker, "breaker", false, "gate optional tasks on faulted streams behind per-task circuit breakers")
	fs.StringVar(&d.Predictor, "challenger", "",
		"run guarded predictor promotion under the chaos: miscal (deliberately miscalibrated challenger) or a shadow backend name; containment fails if the challenger is still steering when the run ends or was never rolled back")
	if err := fs.Parse(args); err != nil {
		return err
	}
	d.Fault.Seed = d.Seed
	// With -json, stdout carries exactly one JSON document; everything
	// human-readable moves to stderr.
	out := stdout
	if *jsonOut {
		out = os.Stderr
	}
	b, srv, err := assemble(d, out)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "chaos: %d streams (%d faulted) x %d frames on %d host cores, plan panic=%.0f%% hang=%.0f%% spike=%.0f%% corrupt=%.0f%%\n",
		d.Streams, d.Faulted, d.Frames, runtime.GOMAXPROCS(0),
		100*d.Fault.Defaults.Panic, 100*d.Fault.Defaults.Hang, 100*d.Fault.Defaults.Spike, 100*d.Fault.CorruptProb)
	res, runErr := srv.Run(d.Frames)
	if len(res.Streams) == 0 {
		return runErr
	}

	counts := b.Injector.Counts()
	fmt.Fprintf(out, "\ninjected faults: %v\n\n", counts)
	fmt.Fprintf(out, "%-10s %9s %7s %7s %9s %7s %8s %11s %6s %11s %s\n",
		"stream", "processed", "skipped", "failed", "abandoned", "misses", "restarts", "recover(ms)", "qual", "missrate", "state")
	var failures []string
	report := chaosReport{
		Seed: d.Seed, Streams: make([]chaosStreamReport, 0, len(res.Streams)), Faults: counts,
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
			Name: st.Name, Healthy: i >= d.Faulted, State: state,
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
		if i >= d.Faulted { // a healthy stream must ride out the chaos untouched
			if st.Quarantined || s.Err != nil {
				failures = append(failures, fmt.Sprintf("healthy stream %s impacted: err=%v", st.Name, s.Err))
			}
			if rate := st.MissRate(); rate > *maxMissRate {
				failures = append(failures, fmt.Sprintf(
					"healthy stream %s miss rate %.3f exceeds bound %.3f", st.Name, rate, *maxMissRate))
			}
		}
	}
	printAggregate(out, &res)

	if ctl := b.Controller; ctl != nil {
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
		caught := slices.ContainsFunc(ctl.Transitions(), func(t promote.Transition) bool {
			return t.To == promote.StateRolledBack || t.To == promote.StateQuarantined
		})
		if !caught {
			failures = append(failures, "challenger was never rolled back or quarantined under chaos")
		}
	}

	if b.Flight != nil {
		report.Dumps = b.Flight.Dumps()
		printFlight(out, b.Flight)
		if err := b.Flight.Err(); err != nil {
			failures = append(failures, fmt.Sprintf("flight recorder: %v", err))
		}
	}
	if runErr != nil {
		fmt.Fprintf(out, "run result: %v\n", runErr)
	}
	report.Failures = failures
	report.Contained = len(failures) == 0
	if *jsonOut {
		if err := writeJSON(stdout, report); err != nil {
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
	Faults       fault.Counts        `json:"faults"`
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
