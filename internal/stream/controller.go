package stream

import (
	"sync"

	"triplec/internal/sched"
)

// Mode is the controller's per-frame directive for one stream.
type Mode int

// Shedding ladder, mildest first.
const (
	// ModeRun processes the frame normally: the manager plans a striped
	// mapping within the stream's current core allocation.
	ModeRun Mode = iota
	// ModeSerial processes the frame but forces the serial mapping: under
	// contention a stream whose core need exceeds its allocation gives up
	// striping, shrinking its footprint to one core so under-allocated
	// peers actually receive their stripes.
	ModeSerial
	// ModeSkip sheds the frame entirely (alternate frames only): when the
	// aggregate predicted demand exceeds the machine by more than the skip
	// threshold, halving an overloaded stream's frame rate is the only way
	// to keep every stream's latency bounded.
	ModeSkip
)

func (m Mode) String() string {
	switch m {
	case ModeRun:
		return "run"
	case ModeSerial:
		return "serial"
	case ModeSkip:
		return "skip"
	}
	return "unknown"
}

// Directive is the controller's admission decision for one frame.
type Directive struct {
	Mode  Mode
	Cores int // core budget the stream's manager may plan with
}

// controller wraps the sched.MultiManager arbiter with the per-frame
// admission policy (the shedding ladder) and the rebalance cadence. All
// methods are called concurrently from the stream goroutines.
type controller struct {
	mm             *sched.MultiManager
	modelCores     int
	skipOver       float64 // aggregate load ratio beyond which skipping starts
	rebalanceEvery int     // demand reports between re-divisions

	mu        sync.Mutex
	budgetsMs []float64 // per-stream frame deadline (0 until initialized)
	reports   int
	demands   []float64 // scratch of load
}

func newController(mm *sched.MultiManager, modelCores, rebalanceEvery int, skipOver float64, budgetsMs []float64) *controller {
	c := &controller{
		mm:             mm,
		modelCores:     modelCores,
		skipOver:       skipOver,
		rebalanceEvery: rebalanceEvery,
		budgetsMs:      make([]float64, len(budgetsMs)),
	}
	copy(c.budgetsMs, budgetsMs)
	return c
}

// setBudgetMs records stream i's frame deadline once its manager has
// initialized it from the first processed frame.
func (c *controller) setBudgetMs(i int, ms float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i >= 0 && i < len(c.budgetsMs) {
		c.budgetsMs[i] = ms
	}
}

func (c *controller) budgetMs(i int) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.budgetsMs) {
		return 0
	}
	return c.budgetsMs[i]
}

// load returns the aggregate predicted core need relative to the machine:
// 1.0 means the streams' Triple-C predictions exactly fill the cores.
func (c *controller) load() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.demands = c.mm.AppendDemands(c.demands[:0])
	need := 0
	for j, d := range c.demands {
		need += sched.CoreNeed(d, c.budgetsMs[j], c.modelCores)
	}
	return float64(need) / float64(c.modelCores)
}

// directive decides stream i's action for frame frameIdx from the current
// core allocation and the aggregate load. The common outcome — the stream's
// own need fits its allocation — reads only that stream's demand and
// deadline and allocates nothing.
func (c *controller) directive(i, frameIdx int) Directive {
	cores := c.mm.BudgetFor(i)
	if cores < 1 {
		// Zero budget is the arbiter's shed signal (the greedy division in the
		// oversubscribed regime: more live streams than cores). Time-slice
		// deterministically — skip alternate frames, run the others serially
		// on one borrowed core — instead of planning against a core this
		// stream does not own.
		if frameIdx%2 == 1 {
			return Directive{Mode: ModeSkip, Cores: 1}
		}
		return Directive{Mode: ModeSerial, Cores: 1}
	}
	if sched.CoreNeed(c.mm.DemandFor(i), c.budgetMs(i), c.modelCores) <= cores {
		return Directive{Mode: ModeRun, Cores: cores}
	}
	// This stream is under-allocated. Shedding only engages when the
	// *aggregate* predicted demand exceeds the machine — otherwise the
	// stream simply plans within its (tight) allocation and the regulator
	// absorbs the difference.
	load := c.load()
	if load <= 1 {
		return Directive{Mode: ModeRun, Cores: cores}
	}
	if load > c.skipOver && frameIdx%2 == 1 {
		return Directive{Mode: ModeSkip, Cores: 1}
	}
	return Directive{Mode: ModeSerial, Cores: 1}
}

// rebalances exposes the arbiter's re-division count (the cause ledger
// flags frames that follow one).
func (c *controller) rebalances() int {
	return c.mm.Rebalances()
}

// quarantine retires stream i from the arbitration: its cores flow to the
// surviving streams immediately (the arbiter rebalances inside Retire), so
// they stop shedding load against a dead stream's stale demand.
func (c *controller) quarantine(i int) {
	c.mm.Retire(i)
}

// report feeds stream i's latest demand signal — scalar predicted demand
// plus the scenario-conditioned cost profile the mapping optimizer scores
// candidates with — to the arbiter and triggers a re-division every
// rebalanceEvery reports. Redivide (not Rebalance) keeps the steady-state
// control loop allocation-free; streams read the outcome back per frame via
// BudgetFor.
func (c *controller) report(i int, d *sched.StreamDemand) {
	c.mm.ReportStream(i, d)
	c.mu.Lock()
	c.reports++
	due := c.reports%c.rebalanceEvery == 0
	c.mu.Unlock()
	if due {
		c.mm.Redivide()
	}
}
