// Package partition describes how the flow graph's tasks are mapped onto
// the multiprocessor: how many cores each task's work is split over.
//
// Following the paper's Section 6: the RDG tasks "can be easily partitioned,
// as the tasks have a streaming nature" (data-parallel striping, along with
// the other pixel-array tasks ENH and ZOOM), while "for the CPLS SEL and
// GW EXT tasks, functional partitioning is more appropriate" (bounded
// two-way splits over extracted features).
package partition

import (
	"fmt"
	"sort"
	"strings"

	"triplec/internal/tasks"
)

// Kind classifies how a task may be parallelized.
type Kind int

// Parallelization kinds.
const (
	// NotPartitionable tasks always run on a single core.
	NotPartitionable Kind = iota
	// DataParallel tasks stream over pixel arrays and stripe freely.
	DataParallel
	// FunctionParallel tasks operate on extracted features and split
	// two ways at most.
	FunctionParallel
)

// KindOf returns the parallelization kind of a task.
func KindOf(task tasks.Name) Kind {
	switch task {
	case tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameENH, tasks.NameZOOM:
		return DataParallel
	case tasks.NameCPLSSel, tasks.NameGWExt:
		return FunctionParallel
	default:
		return NotPartitionable
	}
}

// MaxStripes returns the largest admissible stripe count for a task on a
// machine with numCPUs cores.
func MaxStripes(task tasks.Name, numCPUs int) int {
	switch KindOf(task) {
	case DataParallel:
		return numCPUs
	case FunctionParallel:
		if numCPUs >= 2 {
			return 2
		}
		return 1
	default:
		return 1
	}
}

// Mapping assigns a stripe count to each task; absent tasks run serially.
type Mapping map[tasks.Name]int

// Serial returns the straightforward mapping: every task on one core.
func Serial() Mapping { return Mapping{} }

// StripesFor returns the stripe count for a task (at least 1).
func (m Mapping) StripesFor(task tasks.Name) int {
	if k, ok := m[task]; ok && k > 1 {
		return k
	}
	return 1
}

// With returns a copy of m with task mapped to k stripes.
func (m Mapping) With(task tasks.Name, k int) Mapping {
	out := make(Mapping, len(m)+1)
	for t, v := range m {
		out[t] = v
	}
	out[task] = k
	return out
}

// Validate checks every stripe count against the task's kind and the
// machine size.
func (m Mapping) Validate(numCPUs int) error {
	if numCPUs < 1 {
		return fmt.Errorf("partition: numCPUs must be >= 1")
	}
	for task, k := range m {
		if k < 1 {
			return fmt.Errorf("partition: task %s has %d stripes", task, k)
		}
		if maxK := MaxStripes(task, numCPUs); k > maxK {
			return fmt.Errorf("partition: task %s mapped to %d stripes, max %d (%v)",
				task, k, maxK, KindOf(task))
		}
	}
	return nil
}

// String renders the non-serial entries in stable order.
func (m Mapping) String() string {
	if len(m) == 0 {
		return "serial"
	}
	names := make([]string, 0, len(m))
	for t := range m {
		names = append(names, string(t))
	}
	sort.Strings(names)
	parts := make([]string, 0, len(names))
	for _, n := range names {
		if k := m[tasks.Name(n)]; k > 1 {
			parts = append(parts, fmt.Sprintf("%s/%d", n, k))
		}
	}
	if len(parts) == 0 {
		return "serial"
	}
	return strings.Join(parts, " ")
}

// Worst returns the static worst-case mapping the paper contrasts against:
// every partitionable task at its maximum stripe count. It over-reserves
// resources whether or not the frame needs them.
func Worst(numCPUs int) Mapping {
	m := Mapping{}
	for _, t := range tasks.AllNames() {
		if k := MaxStripes(t, numCPUs); k > 1 {
			m[t] = k
		}
	}
	return m
}
