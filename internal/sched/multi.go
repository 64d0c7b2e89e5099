package sched

import (
	"errors"
	"fmt"

	"triplec/internal/core"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// The paper's stated aim is "to execute more functions on the same
// platform": because Triple-C predicts the average-case demand instead of
// reserving the worst case, several imaging functions can share the
// multiprocessor. This file adds core budgeting to the manager and a
// multi-application runner that splits the machine between independent
// pipelines.

// CoresUsed returns the peak core demand of a mapping: tasks execute
// sequentially within a frame, so the demand is the largest stripe count.
func CoresUsed(m partition.Mapping) int {
	used := 1
	for _, t := range tasks.AllNames() {
		if k := m.StripesFor(t); k > used {
			used = k
		}
	}
	return used
}

// SetCoreBudget limits how many cores the manager's plans may use
// (0 restores the full machine). The budget models a platform partition
// granted to this application while other functions occupy the rest.
func (m *Manager) SetCoreBudget(cores int) error {
	if cores < 0 || cores > m.arch.NumCPUs {
		return fmt.Errorf("sched: core budget %d out of range 0..%d", cores, m.arch.NumCPUs)
	}
	m.coreBudget = cores
	if mm := m.Metrics; mm != nil {
		mm.CoreBudget.Set(float64(cores))
	}
	return nil
}

// CoreBudget returns the current core budget (0 = whole machine).
func (m *Manager) CoreBudget() int { return m.coreBudget }

// maxStripesFor applies the core budget on top of the intrinsic stripe
// limit of the task at index ti.
func (m *Manager) maxStripesFor(ti int) int {
	maxK := m.maxStripes[ti]
	if m.coreBudget > 0 && maxK > m.coreBudget {
		maxK = m.coreBudget
	}
	return maxK
}

// App bundles one application instance sharing the platform.
type App struct {
	Name        string
	Engine      *pipeline.Engine
	Manager     *Manager
	Source      func(int) *frame.Frame
	FramePixels int
}

// MultiResult is the outcome of a co-scheduled run.
type MultiResult struct {
	PerApp    []Result
	PeakCores []int // per-frame combined peak core demand across apps
}

// RunMultiApp co-schedules several applications frame by frame: each frame,
// every app plans under its core budget and processes its frame. The
// combined peak core demand is recorded so tests can verify the apps
// actually fit on the machine together.
func RunMultiApp(apps []App, n int) (MultiResult, error) {
	if len(apps) == 0 {
		return MultiResult{}, errors.New("sched: no applications")
	}
	if n <= 0 {
		return MultiResult{}, errors.New("sched: need at least one frame")
	}
	budgetTotal := 0
	for _, a := range apps {
		if a.Engine == nil || a.Manager == nil || a.Source == nil {
			return MultiResult{}, fmt.Errorf("sched: app %q incomplete", a.Name)
		}
		b := a.Manager.CoreBudget()
		if b == 0 {
			b = a.Manager.arch.NumCPUs
		}
		budgetTotal += b
	}
	if budgetTotal > apps[0].Manager.arch.NumCPUs {
		return MultiResult{}, fmt.Errorf("sched: combined core budgets %d exceed the %d-core machine",
			budgetTotal, apps[0].Manager.arch.NumCPUs)
	}

	out := MultiResult{PerApp: make([]Result, len(apps))}
	var obs core.Observation
	for i := 0; i < n; i++ {
		peak := 0
		for ai := range apps {
			a := &apps[ai]
			dec, rep, err := a.Manager.Step(a.Engine, a.Source(i), i == 0, a.FramePixels, &obs)
			if err != nil {
				return MultiResult{}, fmt.Errorf("sched: app %q frame %d: %w", a.Name, i, err)
			}
			out.PerApp[ai].add(dec, rep)
			peak += CoresUsed(dec.Mapping)
		}
		out.PeakCores = append(out.PeakCores, peak)
	}
	for ai := range apps {
		out.PerApp[ai].regulate(apps[ai].Manager.BudgetMs)
	}
	return out, nil
}
