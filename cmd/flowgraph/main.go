// Command flowgraph prints the application's task graph with its Fig. 2
// bandwidth annotations for any of the eight scenarios, plus the scenario
// bandwidth ranking.
//
// Usage:
//
//	flowgraph [-scenario -1..7] [-framekb n] [-rate hz] [-cachekb n] [-dot]
package main

import (
	"flag"
	"fmt"
	"math"
	"os"

	"triplec/internal/flowgraph"
)

func main() {
	scenario := flag.Int("scenario", flowgraph.WorstCase().Index(), "scenario index 0..7 (-1 for all)")
	frameKB := flag.Int("framekb", flowgraph.PaperFrameKB, "frame buffer size in KB")
	rate := flag.Float64("rate", 30, "frame rate in Hz")
	cacheKB := flag.Int("cachekb", 4096, "L2 capacity in KB for the intra-task analysis")
	dot := flag.Bool("dot", false, "emit Graphviz DOT instead of the text rendering")
	flag.Parse()

	render := func(s flowgraph.Scenario) error {
		if *dot {
			out, err := s.DOT(*frameKB, *rate)
			if err != nil {
				return err
			}
			fmt.Print(out)
			return nil
		}
		out, err := s.Render(*frameKB, *rate)
		if err != nil {
			return err
		}
		fmt.Print(out)
		an, err := flowgraph.Analyze(s, *frameKB, *cacheKB, *rate)
		if err != nil {
			return err
		}
		fmt.Printf("  inter-task %.1f MB/s + intra-task %.1f MB/s = %.1f MB/s total\n\n",
			an.InterMBs, an.IntraMBs, an.TotalMBs())
		return nil
	}

	// Check every flag before anything is printed.
	var err error
	switch {
	case *scenario > 7:
		err = fmt.Errorf("scenario index %d out of range 0..7", *scenario)
	case *frameKB <= 0:
		err = fmt.Errorf("-framekb %d: the frame size must be positive", *frameKB)
	case *cacheKB <= 0:
		err = fmt.Errorf("-cachekb %d: the L2 capacity must be positive", *cacheKB)
	case !(*rate > 0) || math.IsInf(*rate, 1):
		err = fmt.Errorf("-rate %v: the frame rate must be positive and finite", *rate)
	case *scenario < 0:
		for _, s := range flowgraph.AllScenarios() {
			if err = render(s); err != nil {
				break
			}
		}
	default:
		err = render(flowgraph.FromIndex(*scenario))
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "flowgraph:", err)
		os.Exit(1)
	}
}
