// Quickstart: generate a synthetic X-ray angiography sequence, run the
// motion-compensated feature-enhancement pipeline over it, and print the
// per-frame scenario, latency and an ASCII rendering of the enhanced stent
// view.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/synth"
)

func main() {
	// A 128x128 synthetic sequence with all the paper's dynamics: contrast
	// bursts, marker dropouts, breathing and cardiac motion, clutter.
	cfg := synth.DefaultConfig(7)
	cfg.Width, cfg.Height = 128, 128
	cfg.MarkerSpacing = 36
	seq, err := synth.New(cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The pipeline engine models the paper's dual quad-core platform and
	// extrapolates task costs to the clinical 1024x1024 geometry.
	eng, err := pipeline.New(pipeline.Config{
		Width: 128, Height: 128,
		MarkerSpacing: cfg.MarkerSpacing,
		Arch:          platform.Blackford(),
	})
	if err != nil {
		log.Fatal(err)
	}

	var lastOutput *frame.Frame
	fmt.Printf("%6s %-28s %12s %10s %s\n", "frame", "scenario", "latency(ms)", "candidates", "registration")
	for i := 0; i < 30; i++ {
		f, _ := seq.Frame(i)
		rep, err := eng.Process(f, partition.Serial())
		if err != nil {
			log.Fatal(err)
		}
		regState := "fail"
		if rep.Registration.OK {
			regState = fmt.Sprintf("ok (dx=%+.1f dy=%+.1f)", rep.Registration.DX, rep.Registration.DY)
		}
		fmt.Printf("%6d %-28s %12.1f %10d %s\n",
			rep.Index, rep.Scenario.String(), rep.LatencyMs, rep.Candidates, regState)
		if rep.Output != nil {
			lastOutput = rep.Output
		}
	}

	if lastOutput != nil {
		fmt.Println("\nenhanced stent view (temporal integration, ASCII):")
		fmt.Print(frame.RenderASCII(lastOutput, 56, 28))
	} else {
		fmt.Println("\nno enhanced output produced in 30 frames")
	}
}
