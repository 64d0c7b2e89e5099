package sched

import (
	"fmt"
	"math"

	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// This file defines the arbiter's mapping seam: a Mapper turns per-stream
// demand signals into per-stream execution plans (cores + stage-to-core
// structure). The greedy baseline reproduces the historical behavior —
// largest-remainder proportional division, pipeline iff the share allows two
// partitions, split the share evenly between the stages. The bi-criteria
// optimizer in internal/mapping implements the same interface and searches
// the mapping space instead.

// StreamDemand is one stream's demand signal for cross-stream arbitration.
type StreamDemand struct {
	// TotalMs is the smoothed predicted serial demand per frame (ms) — the
	// scalar the greedy division splits the machine proportionally to.
	TotalMs float64
	// BudgetMs is the stream's frame deadline (ms); 0 when unknown. The
	// optimizer uses it for deadline-tightness pressure.
	BudgetMs float64
	// FrameKB is the stream's per-frame payload size (KB); 0 when unknown.
	// The optimizer sizes the stage-handoff communication term with it.
	FrameKB int
	// Profile is the scenario-conditioned per-task cost model; a zero
	// profile (Frames == 0) means only TotalMs is known and mappers must
	// fall back to scalar reasoning.
	Profile pipeline.CostProfile
}

// StreamPlan is a mapper's decision for one stream.
type StreamPlan struct {
	// Cores is the stream's core budget; 0 is the shed signal (time-slice).
	Cores int
	// Pipelined selects the window-2 front/back overlap executor with the
	// stage partitions below; otherwise the stream runs frame-at-a-time.
	Pipelined bool
	// FrontCores and BackCores partition Cores between the two stages when
	// Pipelined (FrontCores + BackCores == Cores, both ≥ 1).
	FrontCores int
	BackCores  int
	// Striped stripes the partitionable tasks across all Cores without
	// pipelining (only meaningful when !Pipelined and Cores ≥ 2).
	Striped bool
}

// Mapping materializes the plan as the task-level stripe widths the engine
// executes: pipelined plans stripe each stage's tasks across that stage's
// partition, striped plans use the full budget, serial plans return the
// serial mapping. numCPUs caps stripe widths at the machine size.
func (p StreamPlan) Mapping(numCPUs int) partition.Mapping {
	switch {
	case p.Pipelined:
		var m partition.Mapping
		for ti, s := range tasks.Specs() {
			k := p.FrontCores
			if s.Back {
				k = p.BackCores
			}
			m = m.WithAt(ti, partition.MaxStripes(s.Name, min(k, numCPUs)))
		}
		return m
	case p.Striped && p.Cores >= 2:
		k := p.Cores
		if k > numCPUs {
			k = numCPUs
		}
		return partition.Worst(k)
	default:
		return partition.Serial()
	}
}

// Mapper decides per-stream execution plans from demand signals. Map fills
// plans (len(plans) == len(demands)) without modifying demands or retaining
// either slice; the MultiManager calls it under its lock, so implementations
// must not call back into the manager and should avoid per-call allocation
// on the steady path.
type Mapper interface {
	Name() string
	Map(totalCores int, demands []StreamDemand, plans []StreamPlan) error
}

// GreedyMapper is the historical baseline: largest-remainder proportional
// division on the scalar demands, pipeline iff the share allows two
// partitions, and an even front/back split (partition.Worst(share/2) per stage — exactly the
// PR-6 bench methodology).
type GreedyMapper struct {
	scratch splitScratch
}

// Name implements Mapper.
func (g *GreedyMapper) Name() string { return "greedy" }

// Map implements Mapper. The budgets it splits into are mapper-owned
// scratch, so a warmed mapper allocates nothing.
func (g *GreedyMapper) Map(totalCores int, demands []StreamDemand, plans []StreamPlan) error {
	if len(plans) != len(demands) {
		return fmt.Errorf("sched: %d plans for %d demands", len(plans), len(demands))
	}
	g.scratch.grow(len(demands))
	budgets := g.scratch.budgets[:len(demands)]
	g.scratch.demands = g.scratch.demands[:0]
	for i := range demands {
		g.scratch.demands = append(g.scratch.demands, demands[i].TotalMs)
	}
	if err := splitInto(budgets, totalCores, g.scratch.demands, &g.scratch); err != nil {
		return err
	}
	for i, c := range budgets {
		plans[i] = GreedyPlan(c)
	}
	return nil
}

// GreedyPlan is the baseline per-stream structure for a core share: pipeline
// with an even stage split when the share allows two partitions, otherwise
// run serial.
func GreedyPlan(cores int) StreamPlan {
	p := StreamPlan{Cores: cores}
	if half := cores / 2; half >= 1 && cores >= 2 {
		p.Pipelined = true
		p.FrontCores = half
		p.BackCores = cores - half
	}
	return p
}

// DemandFromReports builds a stream's demand signal from a profiling prefix:
// mean serial latency as the scalar plus the full scenario-conditioned cost
// profile.
func DemandFromReports(reports []pipeline.Report, budgetMs float64) StreamDemand {
	d := StreamDemand{BudgetMs: budgetMs, Profile: pipeline.Profile(reports)}
	if len(reports) == 0 {
		return d
	}
	sum := 0.0
	for _, r := range reports {
		sum += r.LatencyMs
	}
	d.TotalMs = sum / float64(len(reports))
	return d
}

// ValidatePlans checks the Mapper post-conditions the serving layer relies
// on: budgets sum to at most totalCores; when the machine is not
// oversubscribed every stream holds at least one core; pipelined plans
// partition their share exactly; a zero budget appears only in the
// oversubscribed regime, where exactly totalCores streams hold one core.
func ValidatePlans(totalCores int, plans []StreamPlan) error {
	n := len(plans)
	sum, zeros := 0, 0
	for i, p := range plans {
		if p.Cores < 0 {
			return fmt.Errorf("sched: stream %d has negative budget %d", i, p.Cores)
		}
		sum += p.Cores
		if p.Cores == 0 {
			zeros++
			if p.Pipelined || p.Striped {
				return fmt.Errorf("sched: stream %d shed but still structured", i)
			}
		}
		if p.Pipelined {
			if p.FrontCores < 1 || p.BackCores < 1 || p.FrontCores+p.BackCores != p.Cores {
				return fmt.Errorf("sched: stream %d pipelined split %d+%d != %d cores",
					i, p.FrontCores, p.BackCores, p.Cores)
			}
		}
	}
	if sum > totalCores {
		return fmt.Errorf("sched: plans commit %d of %d cores", sum, totalCores)
	}
	if totalCores >= n && zeros > 0 {
		return fmt.Errorf("sched: %d streams shed with %d cores for %d streams", zeros, totalCores, n)
	}
	if totalCores < n && sum != totalCores {
		return fmt.Errorf("sched: oversubscribed plans use %d of %d cores", sum, totalCores)
	}
	return nil
}

// splitScratch holds the reusable buffers of splitInto so the steady-state
// rebalance path stays allocation-free.
type splitScratch struct {
	demands []float64
	budgets []int
	order   []int
	rems    []rem
}

type rem struct {
	idx  int
	frac float64
}

func (s *splitScratch) grow(n int) {
	if cap(s.order) < n {
		s.order = make([]int, 0, n)
		s.rems = make([]rem, 0, n)
	}
	if cap(s.demands) < n {
		s.demands = make([]float64, 0, n)
		s.budgets = make([]int, n)
	}
}

func sanitizeDemand(v float64) float64 {
	if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}
