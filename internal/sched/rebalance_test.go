package sched

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

func TestSplitCoresProportional(t *testing.T) {
	b, err := SplitCores(8, []float64{30, 10})
	if err != nil {
		t.Fatal(err)
	}
	if b[0]+b[1] != 8 {
		t.Fatalf("budgets %v do not sum to 8", b)
	}
	if b[0] <= b[1] {
		t.Fatalf("heavier demand got %d cores, lighter got %d", b[0], b[1])
	}
}

func TestSplitCoresFloorsAtOne(t *testing.T) {
	b, err := SplitCores(4, []float64{1000, 0, -5, math.NaN()})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i, v := range b {
		if v < 1 {
			t.Fatalf("stream %d got %d cores", i, v)
		}
		total += v
	}
	if total != 4 {
		t.Fatalf("budgets %v do not sum to 4", b)
	}
}

func TestSplitCoresMoreStreamsThanCores(t *testing.T) {
	// Regression: SplitCores used to hand every stream a one-core floor even
	// when that over-committed the machine (3 "cores" granted on a 2-core
	// split). The oversubscribed regime now degrades deterministically: the
	// total highest-demand streams get one core, the rest get the zero-budget
	// shed signal, and the budgets never sum past the machine.
	b, err := SplitCores(2, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[1] != 1 || b[2] != 0 {
		t.Fatalf("budgets %v, want [1 1 0] (ties broken by lower index)", b)
	}
	// Demand ranking decides who keeps a core, not position.
	b, err = SplitCores(2, []float64{1, 9, 4})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[1] != 1 || b[2] != 1 {
		t.Fatalf("budgets %v, want [0 1 1] (highest demand first)", b)
	}
	// Non-finite and negative demands rank as zero instead of poisoning the
	// sort.
	b, err = SplitCores(1, []float64{math.NaN(), 2, -3})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 0 || b[1] != 1 || b[2] != 0 {
		t.Fatalf("budgets %v, want [0 1 0]", b)
	}
}

// Acceptance property: for any machine size and any demand vector — including
// negative, NaN and Inf entries — the returned budgets are non-negative and
// sum to exactly the machine size. SplitCores must never over-commit.
func TestSplitCoresNeverOverCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 500; trial++ {
		total := 1 + rng.Intn(32)
		n := 1 + rng.Intn(12)
		demands := make([]float64, n)
		for i := range demands {
			switch rng.Intn(6) {
			case 0:
				demands[i] = math.NaN()
			case 1:
				demands[i] = math.Inf(1)
			case 2:
				demands[i] = -rng.Float64() * 100
			case 3:
				demands[i] = 0
			default:
				demands[i] = rng.Float64() * 100
			}
		}
		b, err := SplitCores(total, demands)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for i, v := range b {
			if v < 0 {
				t.Fatalf("trial %d: negative budget %d for stream %d (total %d, demands %v)", trial, v, i, total, demands)
			}
			if total >= n && v < 1 {
				t.Fatalf("trial %d: stream %d lost its one-core floor with %d cores for %d streams", trial, i, total, n)
			}
			sum += v
		}
		if sum != total {
			t.Fatalf("trial %d: budgets %v sum to %d, want exactly %d (demands %v)", trial, b, sum, total, demands)
		}
	}
}

func TestSplitCoresNoDemandSignal(t *testing.T) {
	b, err := SplitCores(8, []float64{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 4 || b[1] != 4 {
		t.Fatalf("even split expected, got %v", b)
	}
}

func TestSplitCoresValidation(t *testing.T) {
	if _, err := SplitCores(8, nil); err == nil {
		t.Fatal("empty demand list accepted")
	}
	if _, err := SplitCores(0, []float64{1}); err == nil {
		t.Fatal("zero cores accepted")
	}
}

func TestSplitCoresExactSum(t *testing.T) {
	// Largest-remainder settlement must hit the total exactly for awkward
	// fractions.
	for total := 1; total <= 16; total++ {
		b, err := SplitCores(total, []float64{1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		sum := 0
		for _, v := range b {
			sum += v
		}
		if sum != total {
			t.Fatalf("total %d: budgets %v sum to %d, want %d", total, b, sum, total)
		}
	}
}

func TestCoreNeed(t *testing.T) {
	cases := []struct {
		demand, budget float64
		maxCores, want int
	}{
		{40, 40, 8, 1},
		{41, 40, 8, 2},
		{200, 10, 8, 8}, // clamped
		{0, 40, 8, 1},
		{40, 0, 8, 1},
		{math.NaN(), 40, 8, 1},
		{40, 40, 0, 1},
	}
	for _, c := range cases {
		if got := CoreNeed(c.demand, c.budget, c.maxCores); got != c.want {
			t.Fatalf("CoreNeed(%v, %v, %d) = %d, want %d", c.demand, c.budget, c.maxCores, got, c.want)
		}
	}
}

func TestMultiManagerRebalance(t *testing.T) {
	mm, err := NewMultiManager(8, 2)
	if err != nil {
		t.Fatal(err)
	}
	if b := mm.BudgetFor(0); b != 4 {
		t.Fatalf("initial budget = %d, want even 4", b)
	}
	mm.ReportDemand(0, 60)
	mm.ReportDemand(1, 20)
	b := mm.Rebalance()
	if b[0] <= b[1] {
		t.Fatalf("rebalance ignored demand: %v", b)
	}
	if mm.Rebalances() != 1 {
		t.Fatalf("rebalances = %d, want 1", mm.Rebalances())
	}
	if d := mm.AppendDemands(nil); d[0] != 60 || d[1] != 20 {
		t.Fatalf("demands = %v", d)
	}
}

func TestMultiManagerValidation(t *testing.T) {
	if _, err := NewMultiManager(0, 2); err == nil {
		t.Fatal("zero cores accepted")
	}
	if _, err := NewMultiManager(8, 0); err == nil {
		t.Fatal("zero streams accepted")
	}
}

// Concurrent reporting and rebalancing must be race-free (run with -race)
// and keep every budget within [1, total].
func TestMultiManagerConcurrent(t *testing.T) {
	const streams = 4
	mm, err := NewMultiManager(8, streams)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(streams)
	for s := 0; s < streams; s++ {
		go func(s int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				mm.ReportDemand(s, float64(10+s*7+i%13))
				if i%10 == 0 {
					mm.Rebalance()
				}
				if b := mm.BudgetFor(s); b < 1 || b > 8 {
					t.Errorf("stream %d budget %d out of range", s, b)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	total := 0
	for s := 0; s < streams; s++ {
		total += mm.BudgetFor(s)
	}
	if total != 8 {
		t.Fatalf("budgets sum to %d, want 8", total)
	}
}

// Out-of-range indices must be ignored, not panic.
func TestMultiManagerIndexBounds(t *testing.T) {
	mm, err := NewMultiManager(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	mm.ReportDemand(-1, 10)
	mm.ReportDemand(5, 10)
	if b := mm.BudgetFor(-1); b != 1 {
		t.Fatalf("out-of-range budget = %d, want the one-core floor", b)
	}
}

func TestMultiManagerRetire(t *testing.T) {
	mm, err := NewMultiManager(8, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		mm.ReportDemand(i, 40)
	}
	mm.Rebalance()
	if mm.ActiveStreams() != 4 {
		t.Fatalf("active = %d, want 4", mm.ActiveStreams())
	}
	// Quarantine stream 1: its cores flow to the survivors immediately.
	before := mm.Rebalances()
	mm.Retire(1)
	if mm.Rebalances() != before+1 {
		t.Fatal("retire did not rebalance immediately")
	}
	if mm.ActiveStreams() != 3 {
		t.Fatalf("active = %d after retire, want 3", mm.ActiveStreams())
	}
	if b := mm.BudgetFor(1); b != 0 {
		t.Fatalf("retired stream holds %d cores, want 0", b)
	}
	total := 0
	for i := 0; i < 4; i++ {
		total += mm.BudgetFor(i)
	}
	if total != 8 {
		t.Fatalf("survivors hold %d cores, want the full 8", total)
	}
	// Reports against a retired stream are dropped.
	mm.ReportDemand(1, 500)
	if d := mm.AppendDemands(nil); d[1] != 0 {
		t.Fatalf("retired stream demand = %v, want 0", d[1])
	}
	// Retiring twice (or out of range) is a no-op.
	mm.Retire(1)
	mm.Retire(-1)
	mm.Retire(99)
	if mm.ActiveStreams() != 3 || mm.Rebalances() != before+1 {
		t.Fatal("repeated retire was not a no-op")
	}
}

// An oversubscribed arbiter (more streams than cores) must hand out zero
// budgets instead of over-committing, and Retire's immediate re-split must
// promote a shed stream once a core frees up.
func TestMultiManagerOversubscribed(t *testing.T) {
	mm, err := NewMultiManager(2, 4)
	if err != nil {
		t.Fatal(err)
	}
	sum := func() int {
		s := 0
		for i := 0; i < 4; i++ {
			s += mm.BudgetFor(i)
		}
		return s
	}
	if sum() != 2 {
		t.Fatalf("initial oversubscribed budgets sum to %d, want 2", sum())
	}
	for i := 0; i < 4; i++ {
		mm.ReportDemand(i, float64(10*(i+1)))
	}
	b := mm.Rebalance()
	if b[2] != 1 || b[3] != 1 || b[0] != 0 || b[1] != 0 {
		t.Fatalf("budgets %v, want the two highest-demand streams to hold the cores", b)
	}
	// Retiring a core-holding stream re-splits among the three survivors:
	// the two highest-demand live streams (1 and 2) now hold the cores.
	mm.Retire(3)
	b = []int{mm.BudgetFor(0), mm.BudgetFor(1), mm.BudgetFor(2), mm.BudgetFor(3)}
	if b[1] != 1 || b[2] != 1 || b[0] != 0 || b[3] != 0 {
		t.Fatalf("post-retire budgets %v, want [0 1 1 0]", b)
	}
	if sum() != 2 {
		t.Fatalf("post-retire budgets sum to %d, want 2", sum())
	}
}

func TestMultiManagerRetireAll(t *testing.T) {
	mm, err := NewMultiManager(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	mm.Retire(0)
	mm.Retire(1)
	// No active streams left: budgets freeze, nothing panics.
	mm.Rebalance()
	if mm.ActiveStreams() != 0 {
		t.Fatal("streams left active")
	}
}
