package sched

import "math"

// The allocating core split (GreedyMapper's oracle), scalar demand reports
// and probes only tests use.

// SplitCores is splitInto into a fresh slice.
func SplitCores(total int, demands []float64) ([]int, error) {
	budgets := make([]int, len(demands))
	var s splitScratch
	if err := splitInto(budgets, total, demands, &s); err != nil {
		return nil, err
	}
	return budgets, nil
}

// ReportDemand folds stream i's latest predicted serial demand (ms) into
// its smoothed demand level. The scenario-conditioned cost profile, if any,
// is left untouched — use ReportStream to update both.
func (mm *MultiManager) ReportDemand(i int, predictedMs float64) {
	d := StreamDemand{TotalMs: predictedMs}
	mm.ReportStream(i, &d)
}

// ActiveStreams returns how many streams are still being arbitrated.
func (mm *MultiManager) ActiveStreams() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	n := 0
	for _, a := range mm.active {
		if a {
			n++
		}
	}
	return n
}

// Speedup returns how much lower the managed worst case is than the
// straightforward worst case.
func (c CompareFig7) Speedup(straight []float64, managed Result) float64 {
	if len(straight) == 0 || len(managed.Output) == 0 {
		return 0
	}
	worstS := straight[0]
	for _, v := range straight {
		worstS = math.Max(worstS, v)
	}
	worstM := managed.Output[0]
	for _, v := range managed.Output {
		worstM = math.Max(worstM, v)
	}
	if worstM == 0 {
		return 0
	}
	return worstS / worstM
}

// BusyMs returns the total busy time of one core.
func (t Timeline) BusyMs(core int) float64 {
	busy := 0.0
	for _, iv := range t.Intervals {
		if iv.Core == core {
			busy += iv.EndMs - iv.StartMs
		}
	}
	return busy
}

// Per-frame delay and overrun, which only tests read.

// DelayMs returns the artificial delay inserted for the frame.
func (r Regulator) DelayMs(processingMs float64) float64 {
	if processingMs >= r.BudgetMs {
		return 0
	}
	return r.BudgetMs - processingMs
}

// Overrun returns by how much the frame missed the budget (0 if met).
func (r Regulator) Overrun(processingMs float64) float64 {
	if processingMs <= r.BudgetMs {
		return 0
	}
	return processingMs - r.BudgetMs
}
