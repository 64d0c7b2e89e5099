package pipeline

import "triplec/internal/tasks"

// TaskSeries extracts the execution-time series of one task across reports;
// frames where the task did not run contribute no sample. The returned
// indices identify the source frames.
func TaskSeries(reports []Report, name tasks.Name) (values []float64, indices []int) {
	for _, r := range reports {
		for _, e := range r.Execs {
			if e.Task == name {
				values = append(values, e.Ms)
				indices = append(indices, r.Index)
			}
		}
	}
	return values, indices
}
