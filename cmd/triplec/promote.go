package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"

	"triplec/internal/experiments"
	"triplec/internal/fault"
	"triplec/internal/promote"
)

// runPromote implements the `triplec promote` subcommand: a deterministic
// replay of the guarded predictor-promotion state machine (internal/promote)
// over a synthetic fleet (experiments.ReplayPromote). The transition log
// streams to stdout as it happens; two runs with the same flags produce
// byte-identical logs, which is what the CI promote-smoke job asserts with
// a double-run compare.
// -challenger miscal appends a deliberately miscalibrated challenger and
// promotes it — the forced-rollback drill — and -expect turns the final
// state into the exit code.
func runPromote(args []string, stdout io.Writer) error {
	var d experiments.Deployment
	fs := flag.NewFlagSet("promote", flag.ContinueOnError)
	fs.IntVar(&d.Streams, "streams", 2, "concurrent streams in the replay fleet")
	fs.IntVar(&d.Frames, "frames", 240, "frames to serve per stream")
	fs.Uint64Var(&d.Seed, "seed", 11, "base synthetic-sequence seed")
	fs.IntVar(&d.Train, "train", 2, "training sequences")
	fs.Float64Var(&d.BudgetMs, "budget-ms", 0,
		"per-frame latency budget in ms (0 = initialize from the first processed frame)")
	fs.StringVar(&d.Predictor, "challenger", "auto",
		"challenger policy: auto (promote whichever shadow backend beats the baseline), miscal (append a deliberately miscalibrated challenger — the forced-rollback drill), or a shadow backend name")
	fs.Float64Var(&d.Promote.CanaryFrac, "canary-frac", 0.25,
		"fraction of streams steered by the challenger during the canary stage")
	fs.Float64Var(&d.Promote.MaxMissRate, "guard-miss-rate", 0.25,
		"rolling deadline-miss rate on steered streams beyond which the promotion rolls back")
	fs.BoolVar(&d.Promote.AdaptiveGuards, "adaptive-guards", false,
		"derive the guardrail thresholds (miss rate, accuracy, bias, hit rate) from the baseline predictor's trailing windows instead of the fixed flags")
	fs.IntVar(&d.Promote.BeatFrames, "beat", 0,
		"consecutive frames of negative rolling regret before a canary starts (0 = default)")
	spikeProb := fs.Float64("spike-prob", 0,
		"per-task latency-spike probability injected on every stream (deterministic, overlaid on the modeled latency)")
	spikeMs := fs.Float64("spike-ms", 25, "latency-spike magnitude in ms")
	outPath := fs.String("out", "", "also write the transition log to this file")
	expect := fs.String("expect", "",
		"exit non-zero unless the final state matches (shadow, canary, promoted, rolled-back, quarantined)")
	quiet := fs.Bool("quiet", false, "suppress the live transition log on stdout")
	jsonOut := fs.Bool("json", false, "print the replay result as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}
	want, err := promote.ParseState(*expect)
	if *expect != "" && err != nil {
		return err
	}
	// The spike plan is validated whatever the flags, so a negative or NaN
	// -spike-prob or -spike-ms fails as it does for chaos; spikes are
	// injected when -spike-prob is not 0.
	spikes := &fault.Config{Seed: d.Seed, Defaults: fault.Probs{Spike: *spikeProb}, SpikeMs: *spikeMs}
	if err := spikes.Validate(); err != nil {
		return err
	}
	if *spikeProb != 0 {
		d.Fault, d.Faulted = spikes, d.Streams
	}

	var log bytes.Buffer
	logW := io.MultiWriter(stdout, &log)
	if *quiet {
		logW = &log
	}
	res, _, err := experiments.ReplayPromote(d, logW)
	if err != nil {
		return err
	}
	if *outPath != "" {
		if err := os.WriteFile(*outPath, log.Bytes(), 0o666); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *outPath)
	}

	if *jsonOut {
		if err := writeJSON(stdout, res); err != nil {
			return err
		}
	} else {
		fmt.Fprintf(stdout, "replayed %d streams x %d frames: processed=%d failed=%d misses=%d transitions=%d\n",
			res.Streams, res.Frames, res.Processed, res.Failed, res.Misses, len(res.Transitions))
		if res.RollbackFrame >= 0 {
			fmt.Fprintf(stdout, "first rollback at fleet frame %d, re-steer lag %d serving steps, post-rollback miss rate %.1f%%\n",
				res.RollbackFrame, res.RollbackLagFrames, 100*res.PostRollbackMissRate())
		}
		fmt.Fprintf(stdout, "final state: %s\n", res.FinalStateS)
	}
	if *expect != "" && res.FinalState != want {
		return fmt.Errorf("promote: final state %s, expected %s", res.FinalStateS, want)
	}
	return nil
}
