package fault

import (
	"sort"

	"triplec/internal/tasks"
)

// Breaker probes only tests read.

// State returns the task's current circuit state.
func (b *Breaker) State(task tasks.Name) BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.circuitFor(task).state
}

// countTrips installs an OnTrip hook on b that counts circuit openings.
func countTrips(b *Breaker) *int {
	n := new(int)
	b.OnTrip = func(tasks.Name) { *n++ }
	return n
}

// OpenTasks lists the tasks whose circuit is not closed, sorted by name.
func (b *Breaker) OpenTasks() []tasks.Name {
	b.mu.Lock()
	defer b.mu.Unlock()
	var out []tasks.Name
	for ti, c := range b.tasks {
		if c.state != BreakerClosed {
			out = append(out, tasks.AllNames()[ti])
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
