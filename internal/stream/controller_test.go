package stream

import (
	"testing"

	"triplec/internal/sched"
)

// mkController builds a controller over a fresh arbiter, reports the given
// demands once (the first report sets the EWMA level exactly), and returns
// both. budgets are the per-stream frame deadlines in ms.
func mkController(t *testing.T, modelCores, rebalanceEvery int, skipOver float64, demands, budgets []float64) (*controller, *sched.MultiManager) {
	t.Helper()
	mm, err := sched.NewMultiManager(modelCores, len(demands))
	if err != nil {
		t.Fatal(err)
	}
	for i, d := range demands {
		if d > 0 {
			mm.ReportStream(i, &sched.StreamDemand{TotalMs: d})
		}
	}
	return newController(mm, modelCores, rebalanceEvery, skipOver, budgets), mm
}

// TestDirectiveSkipThresholdExact: the skip rung engages only strictly
// beyond SkipOver. An aggregate load sitting exactly at the threshold must
// stay on the serial rung — the ladder sheds the mildest sufficient way.
func TestDirectiveSkipThresholdExact(t *testing.T) {
	// Two streams, 4 modeled cores, demand 40 ms against a 10 ms budget:
	// each needs ceil(40/10)=4 cores, aggregate need 8, load exactly 2.0.
	c, _ := mkController(t, 4, 4, 2.0, []float64{40, 40}, []float64{10, 10})
	for frameIdx := 0; frameIdx < 4; frameIdx++ {
		d := c.directive(0, frameIdx)
		if d.Mode == ModeSkip {
			t.Fatalf("frame %d skipped at load exactly equal to SkipOver", frameIdx)
		}
		if d.Mode != ModeSerial {
			t.Fatalf("frame %d: mode %v at load 2.0 with 2 cores for need 4, want serial", frameIdx, d.Mode)
		}
	}
	// An epsilon past the threshold, alternate (odd) frames skip.
	c2, _ := mkController(t, 4, 4, 1.99, []float64{40, 40}, []float64{10, 10})
	if d := c2.directive(0, 1); d.Mode != ModeSkip {
		t.Fatalf("odd frame mode %v just past SkipOver, want skip", d.Mode)
	}
	if d := c2.directive(0, 2); d.Mode != ModeSerial {
		t.Fatalf("even frame mode %v just past SkipOver, want serial (alternate frames only)", d.Mode)
	}
}

// TestDirectiveZeroBudgetStream: a stream whose deadline is still
// uninitialized (BudgetMs 0 until the first processed frame) must be
// admitted normally — CoreNeed treats the unknown budget as satisfiable by
// one core, so the stream can process the very frame that initializes it.
func TestDirectiveZeroBudgetStream(t *testing.T) {
	c, _ := mkController(t, 4, 4, 2.0, []float64{500, 500}, []float64{0, 0})
	for frameIdx := 0; frameIdx < 3; frameIdx++ {
		d := c.directive(0, frameIdx)
		if d.Mode != ModeRun {
			t.Fatalf("frame %d: mode %v with uninitialized budget, want run", frameIdx, d.Mode)
		}
		if d.Cores < 1 {
			t.Fatalf("frame %d: %d cores", frameIdx, d.Cores)
		}
	}
}

// TestControllerRebalanceOnFirstReport: with RebalanceEvery=1 the very
// first demand report must already trigger a re-division — the cadence
// counter starts at zero, not one.
func TestControllerRebalanceOnFirstReport(t *testing.T) {
	c, mm := mkController(t, 8, 1, 2.0, []float64{0, 0}, []float64{10, 10})
	if mm.Rebalances() != 0 {
		t.Fatalf("rebalances before any report: %d", mm.Rebalances())
	}
	c.report(0, &sched.StreamDemand{TotalMs: 30})
	if mm.Rebalances() != 1 {
		t.Fatalf("rebalances after first report = %d with RebalanceEvery=1, want 1", mm.Rebalances())
	}
	c.report(1, &sched.StreamDemand{TotalMs: 10})
	if mm.Rebalances() != 2 {
		t.Fatalf("rebalances after second report = %d, want 2", mm.Rebalances())
	}
	if b := mm.BudgetFor(0); b <= mm.BudgetFor(1) {
		t.Fatalf("3x demand did not earn more cores: %d vs %d", b, mm.BudgetFor(1))
	}
}

// TestControllerQuarantineFreesCores: retiring a stream hands its share to
// the survivors immediately and silences its demand.
func TestControllerQuarantineFreesCores(t *testing.T) {
	c, mm := mkController(t, 8, 4, 2.0, []float64{40, 40}, []float64{10, 10})
	mm.Rebalance()
	before := mm.BudgetFor(0)
	c.quarantine(1)
	if got := mm.BudgetFor(0); got != 8 {
		t.Fatalf("survivor holds %d cores after quarantine (had %d), want all 8", got, before)
	}
	if got := mm.BudgetFor(1); got != 0 {
		t.Fatalf("quarantined stream still holds %d cores", got)
	}
	// The survivor's directive is now unconstrained: full allocation, run.
	if d := c.directive(0, 1); d.Mode != ModeRun || d.Cores != 8 {
		t.Fatalf("survivor directive %v/%d cores, want run/8", d.Mode, d.Cores)
	}
}

// TestDirectiveAllocFree: the per-frame admission decision allocates nothing
// — on the common path, where the stream's own need fits its allocation and
// only its own demand and deadline are read, and (once the controller's
// scratch is warm) on the under-allocated path that sizes the aggregate load.
func TestDirectiveAllocFree(t *testing.T) {
	fits, _ := mkController(t, 8, 4, 2.0, []float64{20, 20}, []float64{10, 10})
	if d := fits.directive(0, 0); d.Mode != ModeRun || d.Cores != 4 {
		t.Fatalf("directive %v/%d cores, want run/4", d.Mode, d.Cores)
	}
	if allocs := testing.AllocsPerRun(200, func() { fits.directive(0, 2) }); allocs != 0 {
		t.Fatalf("ModeRun directive allocates %v per frame, want 0", allocs)
	}

	short, _ := mkController(t, 4, 4, 2.0, []float64{40, 40}, []float64{10, 10})
	if d := short.directive(1, 0); d.Mode != ModeSerial {
		t.Fatalf("under-allocated directive %v, want serial", d.Mode)
	}
	if allocs := testing.AllocsPerRun(200, func() { short.directive(1, 2) }); allocs != 0 {
		t.Fatalf("under-allocated directive allocates %v per frame, want 0", allocs)
	}
}
