package mapping

// Speedup returns the measured pipeline speedup: serial makespan over
// pipelined makespan. At most 2 for a two-stage pipeline.
func (t Timeline) Speedup() float64 {
	if t.MakespanMs <= 0 {
		return 1
	}
	return t.SerialMs / t.MakespanMs
}
