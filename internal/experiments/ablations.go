package experiments

import (
	"fmt"
	"io"

	"triplec/internal/core"
	"triplec/internal/platform"
	"triplec/internal/stats"
	"triplec/internal/tasks"
)

// Ablations runs the model-design studies of DESIGN.md §5 as a printed
// report (the benchmarks report the same numbers as metrics): the
// long/short-term decoupling, the state-count rule, the quantization
// scheme, the Markov order, and the baselines.
func Ablations(w io.Writer, study Study) error {
	header(w, "ablations", "model design choices (DESIGN.md §5)")

	// Build the RDG FULL series the studies run on.
	cfg := study.SynthConfig(study.Seed + 9)
	cfg.ContrastEvery = 1
	cfg.ContrastLen = 1
	cfg.VesselModAmp = 0.35
	cfg.VesselModPeriod = 120
	seq, err := newSeq(cfg)
	if err != nil {
		return err
	}
	machine, err := platform.NewMachine(study.Arch)
	if err != nil {
		return err
	}
	rdg := tasks.NewRidgeDetector(tasksParams(study))
	series := make([]float64, 360)
	for i := range series {
		f, _ := seq.Frame(i)
		_, cost := rdg.Run(f)
		series[i] = machine.ExecMs(cost, 1)
	}
	train, test := series[:270], series[270:]

	score := func(m core.Model) float64 {
		m.ResetOnline()
		var preds, acts []float64
		for i, x := range test {
			if i > 0 {
				preds = append(preds, m.Predict(core.Context{}))
				acts = append(acts, x)
			}
			m.Observe(core.Context{}, x)
		}
		mape, err := stats.MeanAbsPercentError(preds, acts)
		if err != nil {
			return 0
		}
		return 1 - mape
	}
	chainScore := func(c *core.Chain) float64 {
		var preds, acts []float64
		for i := 1; i < len(test); i++ {
			preds = append(preds, c.ExpectedNext(test[i-1]))
			acts = append(acts, test[i])
		}
		mape, err := stats.MeanAbsPercentError(preds, acts)
		if err != nil {
			return 0
		}
		return 1 - mape
	}

	fmt.Fprintln(w, "model decomposition (paper §4 decoupling):")
	if m, err := core.NewEWMAMarkovModel([][]float64{train}, 0.15, 10, "RDG"); err == nil {
		fmt.Fprintf(w, "  EWMA + Markov       %.2f%%\n", 100*score(m))
	}
	if m, err := core.NewLastValueModel(train); err == nil {
		fmt.Fprintf(w, "  last value          %.2f%%\n", 100*score(m))
	}
	if m, err := core.NewConstantModel(train); err == nil {
		fmt.Fprintf(w, "  training mean       %.2f%%\n", 100*score(m))
	}
	if m, err := core.NewWorstCaseModel(train); err == nil {
		waste, _ := core.OverReservation(m.Worst, test)
		fmt.Fprintf(w, "  worst-case reserve  %.2f%% (over-reservation %.1f%%)\n",
			100*score(m), 100*waste)
	}

	fmt.Fprintln(w, "\nstate count (rule M = Cmax/sigma, x2, cap):")
	for _, n := range []int{2, 4, 8, 10, 20} {
		m, err := core.NewEWMAMarkovModel([][]float64{train}, 0.15, n, "RDG")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  cap %-3d -> %d states  %.2f%%\n",
			n, m.Chain().States(), 100*score(m))
	}

	fmt.Fprintln(w, "\nquantization (adaptive equal-frequency vs fixed equal-width):")
	if c, err := core.TrainChain([][]float64{train}, 10); err == nil {
		fmt.Fprintf(w, "  equal-frequency  %d states  %.2f%%\n", c.States(), 100*chainScore(c))
	}
	if q, err := core.NewEqualWidthQuantizer(train, 10); err == nil {
		if c, err := core.TrainWithQuantizer(q, [][]float64{train}); err == nil {
			fmt.Fprintf(w, "  equal-width      %d states  %.2f%%\n", c.States(), 100*chainScore(c))
		}
	}

	fmt.Fprintln(w, "\nMarkov order (the paper's state-space explosion argument):")
	if c, err := core.TrainChain([][]float64{train}, 10); err == nil {
		fmt.Fprintf(w, "  order 1  %3d states       %.2f%%\n", c.States(), 100*chainScore(c))
	}
	if c2, err := core.TrainOrder2([][]float64{train}, 10); err == nil {
		var preds, acts []float64
		for i := 2; i < len(test); i++ {
			preds = append(preds, c2.ExpectedNext(test[i-2], test[i-1]))
			acts = append(acts, test[i])
		}
		mape, err := stats.MeanAbsPercentError(preds, acts)
		if err == nil {
			fmt.Fprintf(w, "  order 2  %3d pair states  %.2f%% (only %d/%d pairs ever observed)\n",
				c2.PairStates(), 100*(1-mape), c2.ObservedPairs(), c2.PairStates())
		}
	}

	fmt.Fprintln(w, "\nEWMA alpha (Eq. 1 adaptivity):")
	for _, alpha := range []float64{0.05, 0.15, 0.3, 0.6} {
		m, err := core.NewEWMAMarkovModel([][]float64{train}, alpha, 10, "RDG")
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "  alpha %.2f  %.2f%%\n", alpha, 100*score(m))
	}
	return nil
}
