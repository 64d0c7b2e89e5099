package sched

import (
	"fmt"
	"math"
	"sync"

	"triplec/internal/core"
)

// This file adds the dynamic cross-stream core re-allocation used by the
// multi-stream serving layer (internal/stream): RunMultiApp in multi.go
// co-schedules applications under *static* budgets fixed up front, while a
// MultiManager re-divides the machine between streams every control period
// from their latest Triple-C predictions — the arbitration shape of
// "Resource Allocation for Multiple Concurrent In-Network Stream-Processing
// Applications" (Benoit et al., 2009) applied to the paper's runtime
// manager. The division itself is delegated to a Mapper (mapper.go): the
// greedy proportional baseline by default, the bi-criteria Pareto optimizer
// (internal/mapping) when configured.

// PredictedDemandMs is the manager's per-frame demand signal for
// cross-stream arbitration: the summed per-task Triple-C predictions for
// the scenario the stream is currently in (the most recently observed one).
// Conditioning on the observed scenario instead of the scenario table's
// most-likely successor matters for arbitration: the per-task models adapt
// online, so a stream stuck in a cheap degenerate mode (say, registration
// failing every frame) reports its true few-ms demand even though the
// offline-trained table still predicts a switch back to the full pipeline.
// Before any observation it falls back to the worst-case forecast. A
// steering source (promoted shadow backend, see steer.go) replaces the
// predictor here too.
func (m *Manager) PredictedDemandMs() float64 {
	if src := m.demandSource(); src != nil && src.DemandInto(&m.demandPred) {
		return m.demandPred.TotalMs
	}
	if last, ok := m.predictor.LastScenario(); ok {
		_, d := m.predictor.PredictTasksInto(core.TaskMask(last), m.predictor.NextContext(), &m.demandPred.Ms)
		return d
	}
	m.demandPred = m.predictor.PredictNext()
	return m.demandPred.TotalMs
}

// splitInto divides total cores across applications proportionally to
// their predicted per-frame demand (ms of serial work) into budgets, of
// len(demands). The fractional shares are settled by largest remainder, and
// the budgets sum to exactly total for every input — the split never
// over-commits the machine. When there are at least as many cores as
// applications, every application gets at least one core. When there are
// *more applications than cores* (the oversubscribed serving regime), the
// total highest-demand applications receive one core each (ties broken by
// lower index for determinism) and the rest receive a zero budget — the
// shed signal: a zero-budget stream must time-slice (the serving controller
// alternates it between skipped and serial frames) instead of pretending it
// owns a core that does not exist. Zero, negative and non-finite demands are
// treated as zero. s holds reusable sort buffers; the small sorts are stable
// insertion sorts — the stream count is a handful, and avoiding sort.Slice
// keeps the steady-state rebalance path heap-free.
func splitInto(budgets []int, total int, demands []float64, s *splitScratch) error {
	n := len(demands)
	if n == 0 {
		return fmt.Errorf("sched: no demands to split %d cores over", total)
	}
	if total < 1 {
		return fmt.Errorf("sched: cannot split %d cores", total)
	}
	if len(budgets) != n {
		return fmt.Errorf("sched: %d budget slots for %d demands", len(budgets), n)
	}
	s.grow(n)
	for i := range budgets {
		budgets[i] = 0
	}
	if total < n {
		// Deterministic degradation: one core each for the total
		// highest-demand applications, zero for the rest. A stable
		// descending sort keeps ties ordered by index.
		order := s.order[:0]
		for i := 0; i < n; i++ {
			order = append(order, i)
		}
		for i := 1; i < n; i++ {
			for j := i; j > 0 && sanitizeDemand(demands[order[j]]) > sanitizeDemand(demands[order[j-1]]); j-- {
				order[j], order[j-1] = order[j-1], order[j]
			}
		}
		for _, i := range order[:total] {
			budgets[i] = 1
		}
		return nil
	}
	for i := range budgets {
		budgets[i] = 1
	}
	spare := total - n
	if spare <= 0 {
		return nil
	}
	sum := 0.0
	for _, d := range demands {
		sum += sanitizeDemand(d)
	}
	if sum <= 0 {
		// No demand signal yet: round-robin the spare cores.
		for i := 0; i < spare; i++ {
			budgets[i%n]++
		}
		return nil
	}
	rems := s.rems[:0]
	given := 0
	for i, d := range demands {
		d = sanitizeDemand(d)
		share := d / sum * float64(spare)
		whole := int(share)
		budgets[i] += whole
		given += whole
		rems = append(rems, rem{idx: i, frac: share - float64(whole)})
	}
	// Largest remainder first; ties broken by index for determinism.
	remLess := func(a, b rem) bool {
		if a.frac != b.frac {
			return a.frac > b.frac
		}
		return a.idx < b.idx
	}
	for i := 1; i < n; i++ {
		for j := i; j > 0 && remLess(rems[j], rems[j-1]); j-- {
			rems[j], rems[j-1] = rems[j-1], rems[j]
		}
	}
	for i := 0; given < spare; i++ {
		budgets[rems[i%n].idx]++
		given++
	}
	return nil
}

// CoreNeed returns how many cores an application needs to bring demandMs of
// predicted serial work under its budgetMs deadline, assuming the striping
// scales ideally, clamped to [1, maxCores]. It is deliberately optimistic —
// the manager's own Plan applies the Amdahl correction — so the arbiter uses
// it only as a load signal, not as a guarantee.
func CoreNeed(demandMs, budgetMs float64, maxCores int) int {
	if maxCores < 1 {
		maxCores = 1
	}
	if demandMs <= 0 || budgetMs <= 0 || math.IsNaN(demandMs) || math.IsNaN(budgetMs) {
		return 1
	}
	need := int(math.Ceil(demandMs / budgetMs))
	if need < 1 {
		need = 1
	}
	if need > maxCores {
		need = maxCores
	}
	return need
}

// MultiManager arbitrates one machine's cores across several concurrently
// running streams. Streams report their per-frame predicted demand from
// their own goroutines; Rebalance re-divides the cores through the
// configured Mapper. The MultiManager never touches the streams' Managers
// directly — each stream reads its budget with BudgetFor and applies it to
// its own Manager, so the Manager itself stays single-goroutine (see the
// Engine concurrency contract in internal/pipeline).
//
// Reported demands are smoothed with an EWMA before the split: per-frame
// Triple-C predictions swing with the data-dependent scenario (a stream
// whose registration fails every other frame alternates between the cheap
// and the full pipeline), and re-dividing cores on every swing would thrash
// the allocation. The filter tracks each stream's demand level the same way
// the paper's Eq. 1 EWMA tracks long-term task-time structure.
//
// All methods are safe for concurrent use.
type MultiManager struct {
	// Alpha is the demand-smoothing factor in (0, 1]; 1 disables smoothing.
	// Mutate only before the first ReportStream.
	Alpha float64
	// Mapper decides the per-stream plans at each re-division; nil selects
	// the greedy proportional baseline. It is invoked under the manager's
	// lock and must not call back in. Mutate only before the first
	// Rebalance.
	Mapper Mapper
	// Metrics, when set, publishes every applied re-division (see
	// MultiMetrics). Mutate only before the first Rebalance.
	Metrics *MultiMetrics
	// OnRebalance, when set, is invoked after every applied re-division with
	// the previous and new per-stream core budgets (the span layer's
	// rebalance instant). It runs under the manager's lock and must not call
	// back into the MultiManager. Mutate only before the first Rebalance.
	OnRebalance func(before, after []int)

	mu         sync.Mutex
	totalCores int
	demands    []StreamDemand
	seen       []bool
	active     []bool
	budgets    []int
	rebalances int

	// Reusable scratch so the steady-state rebalance path allocates nothing
	// (pinned by BenchmarkRebalance / TestRebalanceAllocFree).
	greedy    GreedyMapper
	idxBuf    []int
	demandBuf []StreamDemand
	planBuf   []StreamPlan
	beforeBuf []int
}

// NewMultiManager builds an arbiter for n streams over totalCores host
// cores. Initially every stream holds an equal share.
func NewMultiManager(totalCores, n int) (*MultiManager, error) {
	if totalCores < 1 {
		return nil, fmt.Errorf("sched: multi-manager needs at least one core, got %d", totalCores)
	}
	if n < 1 {
		return nil, fmt.Errorf("sched: multi-manager needs at least one stream, got %d", n)
	}
	mm := &MultiManager{
		Alpha:      0.25,
		totalCores: totalCores,
		demands:    make([]StreamDemand, n),
		seen:       make([]bool, n),
		active:     make([]bool, n),
		budgets:    make([]int, n),
		idxBuf:     make([]int, 0, n),
		demandBuf:  make([]StreamDemand, 0, n),
		planBuf:    make([]StreamPlan, n),
		beforeBuf:  make([]int, n),
	}
	for i := range mm.active {
		mm.active[i] = true
	}
	mm.greedy.scratch.grow(n)
	// Initial division: no demand signal yet, so splitInto round-robins the
	// machine evenly. Not counted as a rebalance.
	zeros := make([]float64, n)
	if err := splitInto(mm.budgets, totalCores, zeros, &mm.greedy.scratch); err != nil {
		return nil, err
	}
	return mm, nil
}

// ReportStream folds stream i's latest demand signal — scalar demand plus
// the scenario-conditioned cost profile — into its smoothed state. The first
// report is taken verbatim; later reports are EWMA-blended with Alpha. A
// report with an empty profile updates only the scalar (the profile keeps
// its last value), and a zero BudgetMs keeps the previously reported
// deadline. A report with a non-finite or negative demand, weight or cost
// is dropped. Allocation-free.
func (mm *MultiManager) ReportStream(i int, d *StreamDemand) {
	if d == nil || math.IsNaN(d.TotalMs) || math.IsInf(d.TotalMs, 0) || d.TotalMs < 0 || !d.Profile.Valid() {
		return
	}
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if i < 0 || i >= len(mm.demands) || !mm.active[i] {
		return
	}
	a := mm.Alpha
	if a <= 0 || a > 1 {
		a = 1
	}
	cur := &mm.demands[i]
	if !mm.seen[i] {
		*cur = *d
		mm.seen[i] = true
		return
	}
	cur.TotalMs = (1-a)*cur.TotalMs + a*d.TotalMs
	if d.BudgetMs > 0 {
		cur.BudgetMs = d.BudgetMs
	}
	if d.FrameKB > 0 {
		cur.FrameKB = d.FrameKB
	}
	cur.Profile.Fold(&d.Profile, a)
}

// Rebalance re-divides the cores from the currently reported demands and
// returns a copy of the new per-stream budgets. Retired streams are excluded
// from the division and hold a zero budget.
func (mm *MultiManager) Rebalance() []int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.rebalanceLocked()
	out := make([]int, len(mm.budgets))
	copy(out, mm.budgets)
	return out
}

// Redivide is Rebalance without the defensive copy: the steady-state
// control-loop entry point for callers that read budgets back per stream
// with BudgetFor. With the default greedy mapper it performs no
// heap allocation.
func (mm *MultiManager) Redivide() {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	mm.rebalanceLocked()
}

func (mm *MultiManager) rebalanceLocked() {
	// Map the full machine onto the active streams and scatter the plans
	// back; retired slots get zero. While no stream is retired the mapper
	// reads the demands in place; otherwise the active ones are compacted
	// into demandBuf.
	idx := mm.idxBuf[:0]
	for i := range mm.demands {
		if mm.active[i] {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return
	}
	dem := mm.demands
	if len(idx) < len(mm.demands) {
		dem = mm.demandBuf[:0]
		for _, i := range idx {
			dem = append(dem, mm.demands[i])
		}
	}
	plans := mm.planBuf[:len(idx)]
	mapper := mm.Mapper
	if mapper == nil {
		mapper = &mm.greedy
	}
	if err := mapper.Map(mm.totalCores, dem, plans); err != nil || ValidatePlans(mm.totalCores, plans) != nil {
		// A mapper that fails or violates its post-conditions leaves the
		// previous division in force: a stale budget beats a broken one.
		return
	}
	var before []int
	if mm.OnRebalance != nil {
		before = mm.beforeBuf[:len(mm.budgets)]
		copy(before, mm.budgets)
	}
	for i := range mm.budgets {
		mm.budgets[i] = 0
	}
	for j, i := range idx {
		mm.budgets[i] = plans[j].Cores
	}
	mm.rebalances++
	if m := mm.Metrics; m != nil {
		m.Rebalances.Inc()
		if len(m.CoreAllocation) == len(mm.budgets) {
			for i, cores := range mm.budgets {
				m.CoreAllocation[i].Set(float64(cores))
			}
		}
	}
	if mm.OnRebalance != nil {
		mm.OnRebalance(before, mm.budgets)
	}
}

// Retire permanently removes stream i from the arbitration (it crashed past
// its restart budget and was quarantined): its demand is zeroed, it receives
// a zero budget, and the machine is immediately re-divided among the
// remaining active streams so they regain the quarantined stream's cores
// without waiting for the next control period.
func (mm *MultiManager) Retire(i int) {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if i < 0 || i >= len(mm.active) || !mm.active[i] {
		return
	}
	mm.active[i] = false
	mm.demands[i] = StreamDemand{}
	mm.seen[i] = false
	mm.rebalanceLocked()
	mm.budgets[i] = 0
}

// BudgetFor returns stream i's current core budget. A zero budget is the
// shed signal: either the stream was retired, or the machine is
// oversubscribed (more live streams than cores) and this stream lost the
// demand ranking — it must time-slice rather than plan with cores it does
// not own.
func (mm *MultiManager) BudgetFor(i int) int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if i < 0 || i >= len(mm.budgets) {
		return 1
	}
	return mm.budgets[i]
}

// Rebalances returns how many re-divisions have been applied.
func (mm *MultiManager) Rebalances() int {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	return mm.rebalances
}

// DemandFor returns stream i's latest smoothed scalar demand (0 for an
// out-of-range index).
func (mm *MultiManager) DemandFor(i int) float64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	if i < 0 || i >= len(mm.demands) {
		return 0
	}
	return mm.demands[i].TotalMs
}

// AppendDemands appends the latest smoothed per-stream scalar demands to dst.
func (mm *MultiManager) AppendDemands(dst []float64) []float64 {
	mm.mu.Lock()
	defer mm.mu.Unlock()
	for i := range mm.demands {
		dst = append(dst, mm.demands[i].TotalMs)
	}
	return dst
}
