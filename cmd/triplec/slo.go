package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"triplec/internal/experiments"
	"triplec/internal/slo"
)

// runSlo implements the `triplec slo` subcommand: a deterministic replay
// of the frame-latency cause ledger and the multi-window burn-rate engine
// (internal/slo) over a seeded synthetic fleet (experiments.ReplaySLO). Two
// runs with the same flags produce byte-identical JSON reports, which is
// what the CI slo-smoke job asserts with a double-run compare. -spike overlays a
// deterministic fault-latency window onto every stream — the fast-burn
// page drill — and -expect-page turns "the page fired and cleared" into
// the exit code.
func runSlo(args []string) error {
	fs := flag.NewFlagSet("slo", flag.ContinueOnError)
	streams := fs.Int("streams", 2, "concurrent streams in the replay fleet")
	frames := fs.Int("frames", 240, "frames to serve per stream")
	seed := fs.Uint64("seed", 11, "base synthetic-sequence seed")
	train := fs.Int("train", 2, "training sequences")
	budgetMs := fs.Float64("budget-ms", 0,
		"per-frame latency budget in ms (0 = initialize from the first processed frame)")
	deadline := fs.Float64("deadline-slo", 0,
		"deadline-SLO objective: fraction of frames that must meet the budget (0 = default 0.95)")
	accuracy := fs.Float64("accuracy-slo", 0,
		"accuracy-SLO objective: fraction of frames predicted within 25% (0 = default 0.90)")
	spike := fs.Bool("spike", false,
		"inject deterministic latency spikes on every stream inside the [-spike-from, -spike-to) frame window (the fast-burn page drill)")
	spikeFrom := fs.Int("spike-from", 60, "first spiked per-stream frame")
	spikeTo := fs.Int("spike-to", 120, "one past the last spiked per-stream frame")
	spikeProb := fs.Float64("spike-prob", 0.8, "per-task spike probability inside the window")
	spikeMs := fs.Float64("spike-ms", 25, "spike magnitude in ms")
	expectPage := fs.Bool("expect-page", false,
		"exit non-zero unless a deadline-SLO page fired during the run and cleared before it ended")
	outPath := fs.String("out", "", "also write the JSON report to this file")
	jsonOut := fs.Bool("json", false, "print the report as JSON instead of text")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := experiments.SLOReplayConfig{
		Streams:  *streams,
		Frames:   *frames,
		Seed:     *seed,
		Train:    *train,
		BudgetMs: *budgetMs,
		SLO: slo.Config{
			Deadline: slo.BurnConfig{Objective: *deadline},
			Accuracy: slo.BurnConfig{Objective: *accuracy},
		},
		Spike:     *spike,
		SpikeFrom: *spikeFrom,
		SpikeTo:   *spikeTo,
		SpikeProb: *spikeProb,
		SpikeMs:   *spikeMs,
	}
	res, _, err := experiments.ReplaySLO(cfg)
	if err != nil {
		return err
	}

	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		werr := writeSloJSON(f, res)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Println("wrote", *outPath)
	}

	if *jsonOut {
		if err := writeSloJSON(os.Stdout, res); err != nil {
			return err
		}
	} else {
		printSloReport(os.Stdout, res)
	}
	return experiments.CheckSLOReplay(res, *expectPage)
}

// writeSloJSON renders the report deterministically: a plain indented
// encoder over the already-quantized snapshot, so same-flag runs emit
// byte-identical documents.
func writeSloJSON(w io.Writer, res *experiments.SLOReplayResult) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(res)
}

// printSloReport renders the human-readable summary: serving counts, the
// decomposition-exactness witness, per-SLO burn state and the fleet cause
// ledger.
func printSloReport(w io.Writer, res *experiments.SLOReplayResult) {
	fmt.Fprintf(w, "replayed %d streams x %d frames (seed %d): processed=%d failed=%d misses=%d\n",
		res.Streams, res.Frames, res.Seed, res.Processed, res.Failed, res.Misses)
	fmt.Fprintf(w, "cause decomposition max error: %.3g ms (exact to 1e-6 required)\n", res.MaxSumErrMs)
	if res.Spike {
		if res.FirstPageFrame >= 0 {
			cleared := "still paging"
			if res.PageCleared {
				cleared = "cleared before end of run"
			}
			fmt.Fprintf(w, "fault-spike drill: deadline page fired at fleet frame %d, %s\n",
				res.FirstPageFrame, cleared)
		} else {
			fmt.Fprintln(w, "fault-spike drill: no deadline page fired")
		}
	}
	st := res.Status
	if st == nil {
		return
	}
	fmt.Fprintf(w, "\n%-10s %9s %7s %9s %9s %6s %8s %6s %8s\n",
		"slo", "objective", "state", "fast-burn", "slow-burn", "pages", "tickets", "bad", "good")
	for _, s := range st.SLOs {
		fmt.Fprintf(w, "%-10s %9.3f %7s %9.2f %9.2f %6d %8d %6d %8d\n",
			s.SLO, s.Objective, s.State, s.FastBurn, s.SlowBurn,
			s.Pages, s.Tickets, s.BadFrames, s.GoodFrames)
	}
	fmt.Fprintf(w, "\nfleet cause ledger (%d frames, %d missed, %.2f ms over budget):\n",
		st.Fleet.Frames, st.Fleet.Missed, st.Fleet.OverMs)
	fmt.Fprintf(w, "%-14s %12s %9s %8s %11s\n",
		"cause", "ms", "ms-share", "frames", "over-share")
	for _, c := range st.Fleet.Causes {
		fmt.Fprintf(w, "%-14s %12.2f %8.1f%% %8d %10.1f%%\n",
			c.Cause, c.Ms, 100*c.MsShare, c.Frames, 100*c.OverShare)
	}
	if len(st.Transitions) > 0 {
		fmt.Fprintf(w, "\nalert transitions (%d):\n", len(st.Transitions))
		for _, tr := range st.Transitions {
			fmt.Fprintf(w, "  [%03d] frame=%-6d slo=%-8s %s -> %s\n",
				tr.Seq, tr.Frame, tr.SLOName, tr.FromName, tr.ToName)
		}
	}
}
