package main

import (
	"flag"
	"fmt"
	"os"

	"triplec/internal/experiments"
	"triplec/internal/shadow"
)

// runShadow implements the `triplec shadow` subcommand: an offline,
// cross-validated bake-off of every prediction backend on a synthetic
// replay corpus. Each fold trains the deployed predictor and the
// alternative backends on the training split, replays the held-out
// sequences through a scoreboard, and the cross-fold aggregate is printed
// as text (and optionally written as JSON). The run is fully
// deterministic: two invocations with the same flags produce byte-identical
// reports, and TestShadowShortReportDigest pins the -short report's bytes.
func runShadow(args []string) error {
	fs := flag.NewFlagSet("shadow", flag.ContinueOnError)
	short := fs.Bool("short", false, "small corpus for smoke tests (4 sequences x 30 frames)")
	seed := fs.Uint64("seed", 7, "synthetic-corpus base seed")
	seqs := fs.Int("seqs", 6, "sequences in the replay corpus")
	frames := fs.Int("frames", 80, "frames per sequence")
	folds := fs.Int("folds", 3, "k of the k-fold cross-validation split")
	warmup := fs.Int("warmup", 2, "unscored forecasts after each sequence reset")
	outPath := fs.String("out", "", "write the JSON report to this file (\"-\" for stdout)")
	minAcc := fs.Float64("min-acc", 0.70, "fail unless the deployed baseline's accuracy reaches this floor")
	quiet := fs.Bool("quiet", false, "suppress the text scoreboard")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *short {
		*seqs, *frames = 4, 30
	}
	if *seqs < 2 {
		return fmt.Errorf("shadow: need at least 2 sequences, got %d", *seqs)
	}
	if *frames < 2 {
		return fmt.Errorf("shadow: need at least 2 frames per sequence, got %d", *frames)
	}

	study := experiments.DefaultStudy()
	study.Seed = *seed
	sequences, err := study.Profile(*seed+5000, 29, *seqs, *frames)
	if err != nil {
		return err
	}

	rep, err := shadow.CrossValidate(sequences, shadow.Config{
		Folds:  *folds,
		Warmup: *warmup,
		Seed:   *seed,
	})
	if err != nil {
		return err
	}

	if !*quiet {
		if err := rep.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	switch *outPath {
	case "":
	case "-":
		if err := rep.WriteJSON(os.Stdout); err != nil {
			return err
		}
	default:
		file, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		werr := rep.WriteJSON(file)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		if !*quiet {
			fmt.Println("wrote", *outPath)
		}
	}
	return rep.Check(*minAcc)
}
