package main

import (
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"

	"triplec/internal/slo"
	"triplec/internal/span"
)

// runTrace implements the `triplec trace <dump.json>` subcommand: it parses
// a flight-recorder dump and prints a per-frame text waterfall (task spans
// scaled by their modeled execution time, deadline misses marked, the SLO
// cause ledger's overage attribution per frame) followed by the per-task
// prediction-error attribution — which tasks' Triple-C predictions drifted,
// by how much, and how often the Markov scenario forecast missed inside the
// captured window.
func runTrace(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	maxFrames := fs.Int("frames", 20, "waterfall only the last N frames (0 = all)")
	wide := fs.Int("width", 48, "waterfall bar width in characters")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: triplec trace [-frames n] [-width w] <dump.json>")
	}
	if *wide < 8 {
		return fmt.Errorf("trace: -width %d too narrow", *wide)
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	d, err := span.ReadDump(f)
	f.Close()
	if err != nil {
		return err
	}
	renderTrace(stdout, fs.Arg(0), d, *maxFrames, *wide)
	return nil
}

// missFrameSet indexes the dump's scenario_miss instants: pid -> frame set.
func missFrameSet(d *span.Dump) map[int]map[int]bool {
	missFrames := map[int]map[int]bool{}
	for _, in := range d.Instants {
		if in.Name == "scenario_miss" {
			if missFrames[in.Pid] == nil {
				missFrames[in.Pid] = map[int]bool{}
			}
			missFrames[in.Pid][in.Frame] = true
		}
	}
	return missFrames
}

// frameCauses runs the SLO cause ledger's decomposition (slo.Classify)
// over every frame in the dump, in order, from the evidence a dump
// preserves: scenario-miss instants, the quality rung, and the previous
// frame's outcome on the same stream (a failed or abandoned frame makes
// the next processed one a fault-recovery frame). Core-wait, rebalance
// and drain evidence is not recorded in dumps, so those causes never
// appear here — the live tracker (serve -slo) sees them.
func frameCauses(d *span.Dump) []slo.Breakdown {
	missFrames := missFrameSet(d)
	prevOutcome := map[int]string{}
	out := make([]slo.Breakdown, len(d.Frames))
	var in slo.FrameInput
	for i, fr := range d.Frames {
		in = slo.FrameInput{
			Stream:       fr.Pid,
			Frame:        fr.Frame,
			LatencyMs:    fr.ActualMs,
			PredictedMs:  fr.PredictedMs,
			BudgetMs:     fr.BudgetMs,
			ScenarioMiss: missFrames[fr.Pid][fr.Frame],
			Degraded:     fr.Quality != "full",
			FaultRecover: prevOutcome[fr.Pid] != "" && prevOutcome[fr.Pid] != "processed",
		}
		slo.Classify(&in, &out[i])
		prevOutcome[fr.Pid] = fr.Outcome
	}
	return out
}

// causeLabel renders one frame's ledger verdict for the waterfall header:
// the dominant overage cause and its charge, or plain "compute" for a
// frame whose latency the plan fully explains.
func causeLabel(b *slo.Breakdown) string {
	if b.OverMs <= 0 {
		return "compute"
	}
	return fmt.Sprintf("%s(+%.2fms)", b.Dominant, b.OverMs)
}

// renderTrace prints the dump header, the per-frame waterfall and the
// prediction-error attribution to w.
func renderTrace(w io.Writer, path string, d *span.Dump, maxFrames, wide int) {
	fmt.Fprintf(w, "dump %s: trigger %s (stream %d, frame %d, detail %.3f, %d coalesced)\n",
		path, d.Reason, d.Stream, d.Frame, d.Detail, d.Coalesced)
	fmt.Fprintf(w, "%d frames, %d instants, %d orphan task spans in window\n\n",
		len(d.Frames), len(d.Instants), d.OrphanTasks)

	causes := frameCauses(d)
	frames := d.Frames
	if maxFrames > 0 && len(frames) > maxFrames {
		causes = causes[len(frames)-maxFrames:]
		frames = frames[len(frames)-maxFrames:]
		fmt.Fprintf(w, "(waterfall truncated to the last %d frames; -frames 0 for all)\n\n", maxFrames)
	}

	// Waterfall: each task bar is scaled by its modeled ms against the
	// frame's total, positioned by cumulative modeled time — the latency
	// the budget is charged against, which is what deadline attribution
	// needs (wall-clock spans stay available in Perfetto).
	for fi, fr := range frames {
		miss := ""
		if fr.BudgetMs > 0 && fr.ActualMs > fr.BudgetMs {
			miss = "  ** DEADLINE MISS **"
		}
		fmt.Fprintf(w, "%s frame %d  [%s]  quality=%s cores=%d pred=%.2fms actual=%.2fms budget=%.2fms outcome=%s cause=%s%s\n",
			fr.Process, fr.Frame, fr.Scenario, fr.Quality, fr.Cores,
			fr.PredictedMs, fr.ActualMs, fr.BudgetMs, fr.Outcome, causeLabel(&causes[fi]), miss)
		total := fr.ActualMs
		if total <= 0 {
			for _, t := range fr.Tasks {
				total += t.ActualMs
			}
		}
		cum := 0.0
		for _, t := range fr.Tasks {
			off, bar := 0, 1
			if total > 0 {
				off = int(cum / total * float64(wide))
				bar = int(t.ActualMs / total * float64(wide))
				if bar < 1 {
					bar = 1
				}
			}
			drift := ""
			if t.PredictedMs > 0 && t.ActualMs > 0 {
				drift = fmt.Sprintf("  pred %.2f (%+.0f%%)", t.PredictedMs,
					100*(t.PredictedMs-t.ActualMs)/t.ActualMs)
			}
			fmt.Fprintf(w, "  %-12s |%s%s%s| %7.2fms x%d%s\n",
				t.Name, strings.Repeat(" ", off), strings.Repeat("#", bar),
				strings.Repeat(" ", max(0, wide-off-bar)), t.ActualMs, t.Stripes, drift)
			cum += t.ActualMs
		}
		fmt.Fprintln(w)
	}

	printAttribution(w, d)
}

// taskErrStats accumulates one task's prediction-error profile.
type taskErrStats struct {
	name       string
	n          int
	sumSigned  float64 // mean signed rel-error: + = over-predicted
	sumAbs     float64
	worstAbs   float64
	sumMsDrift float64 // summed (actual - predicted) ms: latency attributed
}

// printAttribution aggregates per-task prediction error over every task
// span in the dump that carries both a prediction and an actual time.
func printAttribution(w io.Writer, d *span.Dump) {
	byTask := map[string]*taskErrStats{}
	scenarioMisses, frames := 0, len(d.Frames)
	var missMs float64 // actual-vs-predicted latency on scenario-missed frames
	missFrames := missFrameSet(d)
	for _, set := range missFrames {
		scenarioMisses += len(set)
	}
	for _, fr := range d.Frames {
		if missFrames[fr.Pid][fr.Frame] && fr.PredictedMs > 0 {
			missMs += fr.ActualMs - fr.PredictedMs
		}
		for _, t := range fr.Tasks {
			if t.PredictedMs <= 0 || t.ActualMs <= 0 {
				continue
			}
			s := byTask[t.Name]
			if s == nil {
				s = &taskErrStats{name: t.Name}
				byTask[t.Name] = s
			}
			rel := (t.PredictedMs - t.ActualMs) / t.ActualMs
			s.n++
			s.sumSigned += rel
			s.sumAbs += math.Abs(rel)
			s.worstAbs = max(s.worstAbs, math.Abs(rel))
			s.sumMsDrift += t.ActualMs - t.PredictedMs
		}
	}

	fmt.Fprintln(w, "per-task prediction-error attribution (predicted vs actual ms):")
	if len(byTask) == 0 {
		fmt.Fprintln(w, "  no task spans with prediction data in this window")
	} else {
		list := make([]*taskErrStats, 0, len(byTask))
		for _, s := range byTask {
			list = append(list, s)
		}
		sort.Slice(list, func(a, b int) bool {
			return math.Abs(list[a].sumMsDrift) > math.Abs(list[b].sumMsDrift)
		})
		fmt.Fprintf(w, "  %-12s %7s %11s %10s %10s %12s\n",
			"task", "samples", "mean signed", "mean |e|", "worst |e|", "drift (ms)")
		for _, s := range list {
			fmt.Fprintf(w, "  %-12s %7d %10.1f%% %9.1f%% %9.1f%% %12.2f\n",
				s.name, s.n, 100*s.sumSigned/float64(s.n), 100*s.sumAbs/float64(s.n),
				100*s.worstAbs, s.sumMsDrift)
		}
	}
	fmt.Fprintf(w, "\nscenario forecast: %d miss instant(s) across %d frames", scenarioMisses, frames)
	if scenarioMisses > 0 {
		fmt.Fprintf(w, "; %+.2f ms total frame-latency drift on missed frames", missMs)
	}
	fmt.Fprintln(w)
}
