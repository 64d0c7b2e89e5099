package partition

import "triplec/internal/tasks"

// TwoStripeRDG returns the 2-stripe data-partitioning of the ridge tasks
// used in the paper's Fig. 6 comparison.
func TwoStripeRDG() Mapping {
	return Serial().With(tasks.NameRDGFull, 2).With(tasks.NameRDGROI, 2)
}
