package main

import (
	"encoding/json"
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
func runPromote(args []string) error {
	fs := flag.NewFlagSet("promote", flag.ContinueOnError)
	streams := fs.Int("streams", 2, "concurrent streams in the replay fleet")
	frames := fs.Int("frames", 240, "frames to serve per stream")
	seed := fs.Uint64("seed", 11, "base synthetic-sequence seed")
	train := fs.Int("train", 2, "training sequences")
	budgetMs := fs.Float64("budget-ms", 0,
		"per-frame latency budget in ms (0 = initialize from the first processed frame)")
	challenger := fs.String("challenger", "auto",
		"challenger policy: auto (promote whichever shadow backend beats the baseline), miscal (append a deliberately miscalibrated challenger — the forced-rollback drill), or a shadow backend name")
	canaryFrac := fs.Float64("canary-frac", 0.25,
		"fraction of streams steered by the challenger during the canary stage")
	guardMissRate := fs.Float64("guard-miss-rate", 0.25,
		"rolling deadline-miss rate on steered streams beyond which the promotion rolls back")
	adaptiveGuards := fs.Bool("adaptive-guards", false,
		"derive the guardrail thresholds (miss rate, accuracy, bias, hit rate) from the baseline predictor's trailing windows instead of the fixed flags")
	beat := fs.Int("beat", 0,
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
	var want promote.State
	if *expect != "" {
		var err error
		if want, err = promote.ParseState(*expect); err != nil {
			return err
		}
	}

	cfg := experiments.PromoteReplayConfig{
		Streams:  *streams,
		Frames:   *frames,
		Seed:     *seed,
		Train:    *train,
		BudgetMs: *budgetMs,
		Promote: promote.Config{
			CanaryFrac:     *canaryFrac,
			MaxMissRate:    *guardMissRate,
			BeatFrames:     *beat,
			AdaptiveGuards: *adaptiveGuards,
		},
	}
	switch *challenger {
	case "miscal":
		cfg.Miscalibrate = true
	default:
		cfg.Promote.Challenger = *challenger
	}
	if *spikeProb > 0 {
		cfg.Fault = &fault.Config{
			Seed:     *seed,
			Defaults: fault.Probs{Spike: *spikeProb},
			SpikeMs:  *spikeMs,
		}
	}

	var logW io.Writer = os.Stdout
	if *quiet {
		logW = io.Discard
	}
	var outFile *os.File
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		outFile = f
		logW = io.MultiWriter(logW, f)
	}
	res, _, err := experiments.ReplayPromote(cfg, logW)
	if outFile != nil {
		if cerr := outFile.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		return err
	}
	if outFile != nil {
		fmt.Println("wrote", *outPath)
	}

	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			return err
		}
	} else {
		fmt.Printf("replayed %d streams x %d frames: processed=%d failed=%d misses=%d transitions=%d\n",
			res.Streams, res.Frames, res.Processed, res.Failed, res.Misses, len(res.Transitions))
		if res.RollbackFrame >= 0 {
			fmt.Printf("first rollback at fleet frame %d, re-steer lag %d serving steps, post-rollback miss rate %.1f%%\n",
				res.RollbackFrame, res.RollbackLagFrames, 100*res.PostRollbackMissRate())
		}
		fmt.Printf("final state: %s\n", res.FinalStateS)
	}
	if *expect != "" && res.FinalState != want {
		return fmt.Errorf("promote: final state %s, expected %s", res.FinalStateS, want)
	}
	return nil
}
