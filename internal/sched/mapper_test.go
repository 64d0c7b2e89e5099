package sched

import (
	"math"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// TestCoreNeedProperties sweeps the CoreNeed domain and checks the three
// invariants the arbiter leans on: the need is monotone non-decreasing in
// demand (for a fixed budget), never exceeds maxCores, and is at least one
// for any positive demand.
func TestCoreNeedProperties(t *testing.T) {
	budgets := []float64{0.5, 1, 5, 10, 33.3}
	demands := []float64{0.01, 0.5, 1, 2, 9.99, 10, 10.01, 50, 1000}
	for _, maxCores := range []int{1, 2, 4, 8, 64} {
		for _, b := range budgets {
			prev := 0
			for _, d := range demands {
				got := CoreNeed(d, b, maxCores)
				if got < 1 {
					t.Fatalf("CoreNeed(%v, %v, %d) = %d < 1", d, b, maxCores, got)
				}
				if got > maxCores {
					t.Fatalf("CoreNeed(%v, %v, %d) = %d > maxCores", d, b, maxCores, got)
				}
				if got < prev {
					t.Fatalf("CoreNeed not monotone in demand: budget %v maxCores %d, demand %v dropped to %d after %d",
						b, maxCores, d, got, prev)
				}
				prev = got
			}
		}
	}
}

// FuzzCoreNeed drives the same invariants from arbitrary (demand, budget,
// maxCores) triples, including the degenerate inputs (NaN, infinities,
// non-positive values) the scalar must absorb without panicking.
func FuzzCoreNeed(f *testing.F) {
	f.Add(10.0, 5.0, 4)
	f.Add(0.0, 0.0, 0)
	f.Add(math.Inf(1), 1.0, 8)
	f.Add(math.NaN(), math.NaN(), -3)
	f.Add(1e308, 1e-308, 1024)
	f.Fuzz(func(t *testing.T, demand, budget float64, maxCores int) {
		got := CoreNeed(demand, budget, maxCores)
		if got < 1 {
			t.Fatalf("CoreNeed(%v, %v, %d) = %d < 1", demand, budget, maxCores, got)
		}
		if lim := maxCores; lim >= 1 && got > lim {
			t.Fatalf("CoreNeed(%v, %v, %d) = %d > maxCores", demand, budget, maxCores, got)
		}
		if maxCores < 1 && got != 1 {
			t.Fatalf("CoreNeed(%v, %v, %d) = %d with clamped maxCores, want 1", demand, budget, maxCores, got)
		}
		// Monotonicity in demand for well-formed inputs.
		if budget > 0 && demand > 0 && !math.IsNaN(demand) && !math.IsInf(demand, 0) && demand > 1 {
			if lower := CoreNeed(demand/2, budget, maxCores); lower > got {
				t.Fatalf("CoreNeed(%v)=%d > CoreNeed(%v)=%d at budget %v", demand/2, lower, demand, got, budget)
			}
		}
	})
}

// TestGreedyMapperMatchesSplitCores: the mapper seam must not change the
// historical allocation — GreedyMapper's core budgets are exactly SplitCores
// over the scalar demands, and each plan is GreedyPlan of that share.
func TestGreedyMapperMatchesSplitCores(t *testing.T) {
	cases := []struct {
		total   int
		demands []float64
	}{
		{8, []float64{30, 10}},
		{8, []float64{1, 1, 1}},
		{3, []float64{5, 40, 40, 2}},
		{16, []float64{0, 0, 0, 0}},
		{5, []float64{math.NaN(), 10, -3}},
	}
	for _, tc := range cases {
		want, err := SplitCores(tc.total, tc.demands)
		if err != nil {
			t.Fatal(err)
		}
		ds := make([]StreamDemand, len(tc.demands))
		for i, d := range tc.demands {
			ds[i].TotalMs = d
		}
		plans := make([]StreamPlan, len(ds))
		var g GreedyMapper
		if err := g.Map(tc.total, ds, plans); err != nil {
			t.Fatal(err)
		}
		for i, p := range plans {
			if p.Cores != want[i] {
				t.Fatalf("total %d demands %v: stream %d got %d cores, SplitCores says %d",
					tc.total, tc.demands, i, p.Cores, want[i])
			}
			if p != GreedyPlan(want[i]) {
				t.Fatalf("stream %d plan %+v != GreedyPlan(%d) %+v", i, p, want[i], GreedyPlan(want[i]))
			}
		}
		if err := ValidatePlans(tc.total, plans); err != nil {
			t.Fatalf("greedy plans invalid for total %d demands %v: %v", tc.total, tc.demands, err)
		}
	}
}

// FuzzGreedyMapperInvariants: for arbitrary machine sizes and demand
// vectors, the greedy mapper must always emit plans that pass ValidatePlans
// — cores conserved, floors respected, shed only when oversubscribed.
func FuzzGreedyMapperInvariants(f *testing.F) {
	f.Add(8, 30.0, 10.0, 1.0, uint8(2))
	f.Add(2, 0.0, 0.0, 0.0, uint8(3))
	f.Add(64, 1e9, 1e-9, math.Inf(1), uint8(4))
	f.Add(1, -5.0, math.NaN(), 7.0, uint8(1))
	f.Fuzz(func(t *testing.T, total int, d0, d1, d2 float64, n uint8) {
		if total < 1 || total > 512 {
			return
		}
		streams := int(n%8) + 1
		raw := []float64{d0, d1, d2}
		ds := make([]StreamDemand, streams)
		for i := range ds {
			ds[i].TotalMs = raw[i%len(raw)]
		}
		plans := make([]StreamPlan, streams)
		var g GreedyMapper
		if err := g.Map(total, ds, plans); err != nil {
			t.Fatalf("greedy map failed: %v", err)
		}
		if err := ValidatePlans(total, plans); err != nil {
			t.Fatalf("total %d streams %d demands %v: %v", total, streams, raw, err)
		}
		sum := 0
		for _, p := range plans {
			sum += p.Cores
		}
		if sum != total && total >= streams {
			t.Fatalf("greedy left cores on the table: used %d of %d", sum, total)
		}
	})
}

// TestStreamPlanMapping: the materialized stripe widths follow the plan's
// structure — pipelined plans stripe per stage partition, striped plans use
// the whole share, serial plans are the serial mapping.
func TestStreamPlanMapping(t *testing.T) {
	if m := (StreamPlan{Cores: 1}).Mapping(8); m != partition.Serial() {
		t.Fatalf("serial plan materialized %v, want serial", m)
	}
	p := StreamPlan{Cores: 4, Pipelined: true, FrontCores: 1, BackCores: 3}
	m := p.Mapping(8)
	for _, task := range tasks.AllNames() {
		k := p.FrontCores
		if flowgraph.StageOf(task) == flowgraph.StageBack {
			k = p.BackCores
		}
		if got, want := m.StripesFor(task), partition.MaxStripes(task, k); got != want {
			t.Fatalf("task %s: stripe %d, want %d", task, got, want)
		}
	}
	s := StreamPlan{Cores: 6, Striped: true}
	if got, want := s.Mapping(4), partition.Worst(4); got != want {
		t.Fatalf("striped mapping %v not capped at numCPUs: want %v", got, want)
	}
}

// TestValidatePlansRejects: each post-condition violation is caught.
func TestValidatePlansRejects(t *testing.T) {
	cases := []struct {
		name  string
		total int
		plans []StreamPlan
	}{
		{"overcommit", 4, []StreamPlan{{Cores: 3}, {Cores: 2}}},
		{"negative", 4, []StreamPlan{{Cores: -1}, {Cores: 2}}},
		{"shed with cores available", 4, []StreamPlan{{Cores: 4}, {Cores: 0}}},
		{"shed but structured", 1, []StreamPlan{{Cores: 1}, {Cores: 0, Striped: true}}},
		{"pipelined split mismatch", 4, []StreamPlan{{Cores: 4, Pipelined: true, FrontCores: 1, BackCores: 2}}},
		{"pipelined zero stage", 4, []StreamPlan{{Cores: 4, Pipelined: true, FrontCores: 0, BackCores: 4}}},
		{"oversubscribed undercommit", 2, []StreamPlan{{Cores: 1}, {Cores: 0}, {Cores: 0}}},
	}
	for _, tc := range cases {
		if err := ValidatePlans(tc.total, tc.plans); err == nil {
			t.Fatalf("%s: ValidatePlans accepted %v over %d cores", tc.name, tc.plans, tc.total)
		}
	}
	ok := []StreamPlan{{Cores: 2, Pipelined: true, FrontCores: 1, BackCores: 1}, {Cores: 2, Striped: true}}
	if err := ValidatePlans(4, ok); err != nil {
		t.Fatalf("valid plans rejected: %v", err)
	}
}

// TestRebalanceAllocFree pins the steady-state control path to zero heap
// allocations: once a MultiManager is warm, reporting demand (with a full
// cost profile) and re-dividing under the greedy mapper must not allocate.
func TestRebalanceAllocFree(t *testing.T) {
	mm, err := NewMultiManager(8, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := StreamDemand{TotalMs: 25, BudgetMs: 40, FrameKB: 128}
	d.Profile.Frames = 4
	d.Profile.Weight[0] = 1
	// Warm-up: first reports take the verbatim-copy path.
	for i := 0; i < 3; i++ {
		mm.ReportStream(i, &d)
	}
	mm.Redivide()
	avg := testing.AllocsPerRun(100, func() {
		d.TotalMs = 25
		mm.ReportStream(0, &d)
		mm.ReportStream(1, &d)
		mm.ReportStream(2, &d)
		mm.Redivide()
	})
	if avg != 0 {
		t.Fatalf("steady-state ReportStream+Redivide allocates %.1f objects/run, want 0", avg)
	}
}

// BenchmarkRebalance measures the steady-state cost of one control period:
// three demand reports plus a re-division on an 8-core machine.
func BenchmarkRebalance(b *testing.B) {
	mm, err := NewMultiManager(8, 3)
	if err != nil {
		b.Fatal(err)
	}
	ds := [3]StreamDemand{
		{TotalMs: 30, BudgetMs: 40, FrameKB: 128},
		{TotalMs: 12, BudgetMs: 40, FrameKB: 128},
		{TotalMs: 55, BudgetMs: 40, FrameKB: 128},
	}
	for i := range ds {
		ds[i].Profile.Frames = 4
		ds[i].Profile.Weight[pipeline.NumScenarios-1] = 1
		mm.ReportStream(i, &ds[i])
	}
	mm.Redivide()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mm.ReportStream(0, &ds[0])
		mm.ReportStream(1, &ds[1])
		mm.ReportStream(2, &ds[2])
		mm.Redivide()
	}
}
