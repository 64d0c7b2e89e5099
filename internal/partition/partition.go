// Package partition describes how the flow graph's tasks are mapped onto
// the multiprocessor: how many cores each task's work is split over, within
// the bound its partitioning kind (tasks.Kind, the paper's Section 6) sets.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"triplec/internal/tasks"
)

// KindOf returns the parallelization kind of a task.
func KindOf(task tasks.Name) tasks.Kind {
	s, _ := tasks.SpecOf(task)
	return s.Kind
}

// MaxStripes returns the largest admissible stripe count for a task on a
// machine with numCPUs cores.
func MaxStripes(task tasks.Name, numCPUs int) int {
	switch KindOf(task) {
	case tasks.DataParallel:
		return numCPUs
	case tasks.FunctionParallel:
		if numCPUs >= 2 {
			return 2
		}
		return 1
	default:
		return 1
	}
}

// Mapping assigns a stripe count to each task, by tasks.IndexOf. It is a
// comparable value: the zero Mapping is Serial, and == is mapping equality.
type Mapping struct {
	// k is each task's stripe count, 0 for one core. No valid count is
	// stored as 1: With stores 1 for a count outside 1..255, which Validate
	// rejects (platform.Arch caps NumCPUs at 255).
	k [tasks.NumNames]uint8
}

// invalidStripes is the entry With stores for a count it cannot hold.
const invalidStripes = 1

// Serial returns the straightforward mapping: every task on one core.
func Serial() Mapping { return Mapping{} }

// StripesFor returns the stripe count for a task (at least 1).
func (m Mapping) StripesFor(task tasks.Name) int {
	if ti := tasks.IndexOf(task); ti >= 0 {
		return m.StripesAt(ti)
	}
	return 1
}

// StripesAt returns the stripe count of the task at index ti (at least 1).
func (m Mapping) StripesAt(ti int) int { return max(int(m.k[ti]), 1) }

// With returns m with task mapped to k stripes. A task outside the flow
// graph panics, as an index out of range does.
func (m Mapping) With(task tasks.Name, k int) Mapping {
	return m.WithAt(tasks.IndexOf(task), k)
}

// WithAt returns m with the task at index ti mapped to k stripes.
func (m Mapping) WithAt(ti, k int) Mapping {
	switch {
	case k == 1:
		m.k[ti] = 0
	case k < 1 || k > 255:
		m.k[ti] = invalidStripes
	default:
		m.k[ti] = uint8(k)
	}
	return m
}

// Validate checks every stripe count against the task's kind and the
// machine size.
func (m Mapping) Validate(numCPUs int) error {
	if numCPUs < 1 {
		return fmt.Errorf("partition: numCPUs must be >= 1")
	}
	for ti, s := range tasks.Specs() {
		if m.k[ti] == invalidStripes {
			return fmt.Errorf("partition: task %s has a stripe count outside 1..255", s.Name)
		}
		if k, maxK := m.StripesAt(ti), MaxStripes(s.Name, numCPUs); k > maxK {
			return fmt.Errorf("partition: task %s mapped to %d stripes, max %d (%v)",
				s.Name, k, maxK, s.Kind)
		}
	}
	return nil
}

// String renders the non-serial entries in name order. No task name is a
// prefix of another, so sorting the "NAME/k" parts sorts the names.
func (m Mapping) String() string {
	var parts []string
	for ti, s := range tasks.Specs() {
		if k := m.StripesAt(ti); k > 1 {
			parts = append(parts, fmt.Sprintf("%s/%d", s.Name, k))
		}
	}
	if len(parts) == 0 {
		return "serial"
	}
	sort.Strings(parts)
	return strings.Join(parts, " ")
}

// Worst returns the static worst-case mapping the paper contrasts against:
// every partitionable task at its maximum stripe count. It over-reserves
// resources whether or not the frame needs them.
func Worst(numCPUs int) Mapping {
	var m Mapping
	for ti, s := range tasks.Specs() {
		m = m.WithAt(ti, MaxStripes(s.Name, numCPUs))
	}
	return m
}
