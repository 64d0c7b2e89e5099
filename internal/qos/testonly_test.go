package qos

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
