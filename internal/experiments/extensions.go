package experiments

import (
	"fmt"
	"io"

	"triplec/internal/core"
	"triplec/internal/sched"
	"triplec/internal/stats"
)

// CrossVal runs k-fold cross validation over the training corpus, giving
// the accuracy headline a variance estimate instead of a single train/test
// split.
func CrossVal(w io.Writer, study Study) error {
	header(w, "extension", "k-fold cross-validated prediction accuracy")
	sets, err := study.TrainingSets()
	if err != nil {
		return err
	}
	k := len(sets)
	if k > 5 {
		k = 5
	}
	cv, err := core.CrossValidate(sets, k, 3)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%d folds over %d sequences:\n", k, len(sets))
	for _, f := range cv.Folds {
		fmt.Fprintf(w, "  fold %d: accuracy %.1f%%, worst excursion %.0f%%, scenarios %.0f%% (%d frames)\n",
			f.Fold, 100*f.Accuracy.Mean, 100*f.Accuracy.WorstExcursion,
			100*f.Accuracy.ScenarioHits, f.Accuracy.Frames)
	}
	fmt.Fprintf(w, "mean accuracy %.1f%% ± %.1f%% (weakest fold %.1f%%)\n",
		100*cv.MeanAcc, 100*cv.StdAcc, 100*cv.WorstAcc)
	return nil
}

// MultiApp demonstrates the paper's stated aim "to execute more functions
// on the same platform" (Sections 1, 6, 8): two independent imaging
// pipelines, each granted half the 8-core machine, are co-scheduled under
// Triple-C prediction. The report shows each application's latency
// stability, the combined peak core demand, a Gantt view of one frame, and
// the waste a static worst-case reservation would have incurred instead.
func MultiApp(w io.Writer, study Study) error {
	header(w, "extension", "two functions on the same platform (paper §6 aim)")
	const frames = 80

	mkApp := func(name string, seed uint64) (sched.App, error) {
		p, err := study.TrainPredictor()
		if err != nil {
			return sched.App{}, err
		}
		mgr, err := sched.NewManager(p, study.Arch)
		if err != nil {
			return sched.App{}, err
		}
		if err := mgr.SetCoreBudget(study.Arch.NumCPUs / 2); err != nil {
			return sched.App{}, err
		}
		eng, err := study.Engine()
		if err != nil {
			return sched.App{}, err
		}
		seq, err := study.Sequence(seed)
		if err != nil {
			return sched.App{}, err
		}
		return sched.App{
			Name: name, Engine: eng, Manager: mgr,
			Source: Source(seq), FramePixels: study.FramePixels(),
		}, nil
	}

	appA, err := mkApp("stentboost-A", study.Seed+111)
	if err != nil {
		return err
	}
	appB, err := mkApp("stentboost-B", study.Seed+222)
	if err != nil {
		return err
	}
	res, err := sched.RunMultiApp([]sched.App{appA, appB}, frames)
	if err != nil {
		return err
	}

	for i, name := range []string{appA.Name, appB.Name} {
		r := res.PerApp[i]
		gap, err := sched.WorstVsAverage(r.Output)
		if err != nil {
			return err
		}
		fmt.Fprintf(w, "%s: budget %.1f ms on %d cores, output %.0f..%.0f ms, worst-vs-avg %.0f%%, overruns %.0f%%\n",
			name, r.Regulator.BudgetMs, study.Arch.NumCPUs/2,
			stats.Min(r.Output), stats.Max(r.Output),
			100*gap, 100*r.Regulator.OverrunRate(r.Processing))
	}
	peak := 0
	for _, p := range res.PeakCores {
		if p > peak {
			peak = p
		}
	}
	fmt.Fprintf(w, "combined peak core demand: %d of %d cores\n", peak, study.Arch.NumCPUs)

	// Gantt view of one representative frame of app A (placed on cores
	// 0..3) to visualize the sharing.
	mid := frames / 2
	tl, err := sched.BuildTimeline(res.PerApp[0].Reports[mid], study.Arch.NumCPUs, 0)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\napp A frame %d on its core partition:\n%s", mid, tl.Render(64))

	// Contrast with the static worst-case reservation the paper rejects.
	worst := stats.Max(res.PerApp[0].Processing)
	waste, err := core.OverReservation(worst, res.PerApp[0].Processing)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nstatic worst-case reservation at %.1f ms would waste %.0f%% of the budget on average\n",
		worst, 100*waste)
	return nil
}
