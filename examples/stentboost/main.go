// StentBoost: the full medical application of the paper — motion-
// compensated stent enhancement over a long angiography run. The example
// tracks how well the analysis chain recovers the ground-truth markers,
// writes the input and enhanced frames as 16-bit PGM images, and reports
// the enhancement's noise reduction.
//
// Run with:
//
//	go run ./examples/stentboost [output-dir]
package main

import (
	"fmt"
	"log"
	"math"
	"os"
	"path/filepath"

	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/stats"
	"triplec/internal/synth"
)

func main() {
	outDir := "stentboost-out"
	if len(os.Args) > 1 {
		outDir = os.Args[1]
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		log.Fatal(err)
	}

	cfg := synth.DefaultConfig(99)
	cfg.Width, cfg.Height = 192, 192
	cfg.MarkerSpacing = 48
	cfg.NoiseSigma = 400
	cfg.QuantumGain = 0
	cfg.ClutterRate = 1.5
	cfg.DropoutEvery = 0 // a clean acquisition for the showcase
	seq, err := synth.New(cfg)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := pipeline.New(pipeline.Config{
		Width: cfg.Width, Height: cfg.Height,
		MarkerSpacing: cfg.MarkerSpacing,
		Arch:          platform.Blackford(),
	})
	if err != nil {
		log.Fatal(err)
	}

	const frames = 60
	var allErrs, acceptedErrs []float64
	var lastInput, lastOutput, lastAnnotated *frame.Frame
	enhanced := 0
	for i := 0; i < frames; i++ {
		f, truth := seq.Frame(i)
		rep, err := eng.Process(f, partition.Serial())
		if err != nil {
			log.Fatal(err)
		}
		lastInput = f
		// Annotated view: detected couple crosses + estimated ROI box.
		if rep.Couple != nil {
			annotated := f.Clone()
			frame.DrawCross(annotated, int(rep.Couple.A.X), int(rep.Couple.A.Y), 5, 0xFFFF)
			frame.DrawCross(annotated, int(rep.Couple.B.X), int(rep.Couple.B.Y), 5, 0xFFFF)
			frame.DrawLine(annotated, int(rep.Couple.A.X), int(rep.Couple.A.Y),
				int(rep.Couple.B.X), int(rep.Couple.B.Y), 0xFFFF)
			if !rep.ROI.Empty() {
				frame.DrawRectOutline(annotated, rep.ROI, 0xFFFF)
			}
			lastAnnotated = annotated
		}
		if rep.Output != nil {
			lastOutput = rep.Output
			enhanced++
		}
		// Tracking accuracy: distance between the selected couple and the
		// ground-truth markers (order-insensitive).
		if rep.Couple != nil && truth.MarkersVisible {
			c := rep.Couple
			d1 := math.Hypot(c.A.X-truth.MarkerA[0], c.A.Y-truth.MarkerA[1]) +
				math.Hypot(c.B.X-truth.MarkerB[0], c.B.Y-truth.MarkerB[1])
			d2 := math.Hypot(c.A.X-truth.MarkerB[0], c.A.Y-truth.MarkerB[1]) +
				math.Hypot(c.B.X-truth.MarkerA[0], c.B.Y-truth.MarkerA[1])
			e := math.Min(d1, d2) / 2
			allErrs = append(allErrs, e)
			if rep.Registration.OK {
				acceptedErrs = append(acceptedErrs, e)
			}
		}
	}

	fmt.Printf("processed %d frames; %d enhanced outputs\n", frames, enhanced)
	if len(allErrs) > 0 {
		fmt.Printf("marker tracking (all couples):        %d frames, mean error %.2f px\n",
			len(allErrs), stats.Mean(allErrs))
	}
	if len(acceptedErrs) > 0 {
		// Wrong couples picked during contrast bursts fail the motion
		// criterion; only registration-accepted couples feed the
		// enhancement, so this is the error that matters clinically.
		fmt.Printf("marker tracking (registration-accepted): %d frames, mean error %.2f px, max %.2f px\n",
			len(acceptedErrs), stats.Mean(acceptedErrs), stats.Max(acceptedErrs))
	}

	if lastInput != nil {
		path := filepath.Join(outDir, "input.pgm")
		if err := frame.SavePGM(path, lastInput); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	if lastAnnotated != nil {
		path := filepath.Join(outDir, "annotated.pgm")
		if err := frame.SavePGM(path, lastAnnotated); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)
	}
	if lastOutput != nil {
		path := filepath.Join(outDir, "enhanced.pgm")
		if err := frame.SavePGM(path, lastOutput); err != nil {
			log.Fatal(err)
		}
		fmt.Println("wrote", path)

		// Noise comparison: pixel standard deviation in a background region
		// of the single frame vs the temporally integrated view.
		fmt.Printf("background noise: input sigma %.0f vs enhanced sigma %.0f (temporal integration)\n",
			regionStdDev(lastInput, frame.R(8, 8, 40, 40)),
			regionStdDev(lastOutput, frame.R(8, 8, 40, 40)))
	}
}

// regionStdDev returns the pixel standard deviation within r.
func regionStdDev(f *frame.Frame, r frame.Rect) float64 {
	sub := f.SubFrame(r)
	var vals []float64
	for y := sub.Bounds.Y0; y < sub.Bounds.Y1; y++ {
		for _, v := range sub.Row(y) {
			vals = append(vals, float64(v))
		}
	}
	return stats.StdDev(vals)
}
