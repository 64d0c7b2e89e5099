package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"triplec/internal/bench"
)

// runBench executes the fixed multi-stream scenario matrix through the
// serial baseline and the committed parallel path under the selected
// mapping policies, and writes the machine-readable trajectory point
// (BENCH_7.json). Every number is machine-model time, so the output is
// bit-reproducible; the command exits non-zero when the emitted document
// fails schema validation, any pipelined run's measured speedup falls below
// -min-speedup, or (in -mapper both mode) the optimizer's aggregate
// throughput regresses below the greedy baseline.
func runBench(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	short := fs.Bool("short", false, "third-length scenario runs for CI")
	out := fs.String("out", "BENCH_7.json", "trajectory output path")
	mapper := fs.String("mapper", "both", "mapping policies to run: both, greedy or optimizer")
	minSpeedup := fs.Float64("min-speedup", 1.0, "fail if a pipelined run measures below this speedup")
	if err := fs.Parse(args); err != nil {
		return err
	}

	t, err := bench.Run(bench.Options{Short: *short, Mapper: *mapper, Log: os.Stderr})
	if err != nil {
		return err
	}
	if err := t.Validate(); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "%-12s %7s %-9s %9s %12s %12s %8s %9s %9s %7s %10s\n",
		"scenario", "streams", "mapper", "pipelined", "fps-serial", "fps-mapped", "gain", "measured", "predicted", "relerr", "opt/greedy")
	for i := range t.Scenarios {
		r := &t.Scenarios[i]
		for _, run := range r.Runs() {
			ratio := ""
			if run.Mapper == bench.MapperOptimizer && r.OptOverGreedy > 0 {
				ratio = fmt.Sprintf("%.3f", r.OptOverGreedy)
			}
			fmt.Fprintf(stdout, "%-12s %7d %-9s %9d %12.1f %12.1f %7.2fx %9.3f %9.3f %6.1f%% %10s\n",
				r.Name, r.Streams, run.Mapper, run.PipelinedStreams, r.FPSSerial, run.FPS,
				run.ThroughputGain, run.SpeedupMeasured, run.SpeedupPredicted, 100*run.RelErr, ratio)
		}
	}
	fmt.Fprintf(stdout, "\nbest multi-stream gain %.2fx; estimator within 25%% on %d/%d scenarios; min pipelined speedup %.3f\n",
		t.Summary.BestMultiStreamGain, t.Summary.ScenariosWithinQuarter, len(t.Scenarios), t.Summary.MinPipelinedSpeedup)
	if t.MapperMode == bench.MapperBoth {
		fmt.Fprintf(stdout, "optimizer vs greedy: aggregate %.4fx, best scenario %.4fx\n",
			t.Summary.AggOptOverGreedy, t.Summary.BestOptOverGreedy)
	}

	if err := writeFile(*out, t.WriteJSON); err != nil {
		return err
	}
	fmt.Fprintln(stdout, "wrote", *out)
	if err := t.Check(*minSpeedup); err != nil {
		return err
	}
	if t.MapperMode == bench.MapperBoth {
		return t.CheckOptimizer()
	}
	return nil
}
