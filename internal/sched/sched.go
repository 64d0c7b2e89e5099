// Package sched implements the paper's Section 6: semi-automatic
// parallelization driven by Triple-C predictions. A runtime manager
// initializes a latency budget close to the average case, predicts the
// resource consumption of every upcoming frame, repartitions the flow graph
// on the fly (striping the streaming tasks, splitting the feature tasks
// functionally) to keep the output latency stable at the budget, and feeds
// the observed times back for profiling. The constant-latency output
// regulator and the jitter metrics of Section 7 are in qos.go.
package sched

import (
	"errors"
	"fmt"
	"sync/atomic"

	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/tasks"
)

// Decision is the manager's plan for one frame.
type Decision struct {
	Mapping     partition.Mapping
	PredictedMs float64 // predicted latency under the chosen mapping
	SerialMs    float64 // predicted latency of the serial mapping
	Repartition bool    // true when the mapping differs from the previous frame's
}

// Manager is the runtime resource manager.
type Manager struct {
	predictor *core.Predictor
	arch      platform.Arch

	// BudgetMs is the latency budget; 0 until initialized.
	BudgetMs float64
	// Headroom scales the budget check: a mapping is accepted when the
	// predicted latency is below BudgetMs*Headroom (default 1.0).
	Headroom float64
	// Sticky keeps the previous frame's mapping whenever it still satisfies
	// the predicted demand, avoiding repartitioning churn (on-the-fly
	// repartitioning has a control cost the runtime manager should not pay
	// without benefit).
	Sticky bool
	// Budgeter, when set, adapts BudgetMs at runtime from the observed
	// processing latencies (see BudgetController). The paper fixes the
	// budget at initialization; the controller re-centers it when the
	// initial frame was unrepresentative.
	Budgeter *BudgetController
	// Metrics, when set, publishes the manager's planning decisions and
	// budget to live instruments (see ManagerMetrics). Install before the
	// first Plan; the hooks run on the manager's goroutine.
	Metrics *ManagerMetrics

	switchMs   float64             // per-stripe fork/join overhead in ms
	maxStripes [tasks.NumNames]int // partition.MaxStripes on the whole machine
	coreBudget int                 // cores this application may use; 0 = whole machine

	// lastMapping is the previous plan's mapping, once planned is set.
	lastMapping partition.Mapping
	planned     bool

	// steerSrc is the live-swappable forecast source (see steer.go) that
	// replaces the predictor in Plan and PredictedDemandMs.
	steerSrc atomic.Pointer[steerBox]

	// Per-call scratch, so planning allocates only when it repartitions.
	pred       core.Prediction // next-frame forecast (own or steered)
	demandPred core.Prediction
	demand     [tasks.NumNames]float64
}

// NewManager builds a manager around a trained predictor for the given
// architecture.
func NewManager(p *core.Predictor, arch platform.Arch) (*Manager, error) {
	if p == nil {
		return nil, errors.New("sched: nil predictor")
	}
	machine, err := platform.NewMachine(arch)
	if err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	m := &Manager{
		predictor: p,
		arch:      arch,
		Headroom:  1.0,
		switchMs:  machine.CyclesToMs(arch.SwitchCost),
	}
	for ti, s := range tasks.Specs() {
		m.maxStripes[ti] = partition.MaxStripes(s.Name, arch.NumCPUs)
	}
	return m, nil
}

// Predictor exposes the wrapped predictor.
func (m *Manager) Predictor() *core.Predictor { return m.predictor }

// Arch exposes the architecture the manager plans for.
func (m *Manager) Arch() platform.Arch { return m.arch }

// InitBudget sets the latency budget from the first processed frame per the
// paper's initialization step: "the output latency is set to an initial
// value (close to average case)". The manager takes the first frame's
// serial latency scaled toward the average case.
func (m *Manager) InitBudget(firstFrameMs float64) {
	// The first frame runs at full granularity without an ROI; steady-state
	// frames are cheaper. 85% of the first latency approximates the
	// average case across scenarios.
	m.BudgetMs = firstFrameMs * 0.85
	m.recordBudget()
}

// estStripedMs estimates the execution time of a task predicted to take
// serialMs when striped over k cores: the compute part divides, each stripe
// adds fork/join overhead, and the estimate keeps a conservative fraction
// serial (memory traffic does not parallelize on a shared bus).
func (m *Manager) estStripedMs(serialMs float64, k int) float64 {
	if k <= 1 {
		return serialMs
	}
	const serialFraction = 0.08 // bus-bound share that does not scale
	par := serialMs * (1 - serialFraction)
	return serialMs*serialFraction + par/float64(k) + m.switchMs
}

// MinScenarioP is the transition probability above which a successor
// scenario is provisioned for when planning (pessimistic planning: a
// plausible switch to an expensive scenario must not cause an overrun).
const MinScenarioP = 0.04

// Plan predicts the next frame and chooses a mapping that keeps the
// predicted latency within the budget, striping the most expensive
// partitionable tasks first. The per-task demand is the pessimistic maximum
// over all plausible successor scenarios, so data-dependent switches do not
// surprise the mapping. With no budget set it returns the serial mapping
// (profiling mode).
func (m *Manager) Plan() Decision {
	dec := m.plan()
	m.recordPlan(dec)
	return dec
}

func (m *Manager) plan() Decision {
	// A promoted shadow backend steers the plan when installed and able to
	// forecast; otherwise (including immediately after a rollback or before
	// the source's first successful drive) fall through to the predictor.
	if src := m.demandSource(); src != nil && src.DemandInto(&m.pred) {
		return m.planSteered(&m.pred)
	}
	m.pred = m.predictor.PredictNext()
	serial := m.pred.TotalMs
	if m.BudgetMs <= 0 {
		return m.serialDecision(serial)
	}

	// Pessimistic per-task demand over the plausible successor scenarios.
	// Every candidate is constrained to the physically determined
	// granularity, and the (constrained) worst case is always provisioned:
	// a mapping entry for a task that ends up not running costs nothing,
	// while a missing entry for a task that does run causes an overrun.
	// The models' forecasts do not depend on the scenario, so the maximum
	// over the scenarios is one forecast per task of their union.
	p := m.predictor
	mask := core.TaskMask(p.ConstrainScenario(flowgraph.WorstCase()))
	if last, ok := p.LastScenario(); ok {
		var buf [8]flowgraph.Scenario
		for _, s := range p.Scenarios.AppendSuccessors(buf[:0], last, MinScenarioP) {
			mask |= core.TaskMask(p.ConstrainScenario(s))
		}
	}
	p.PredictTasksInto(mask, p.NextContext(), &m.demand)
	return m.planWithDemand(serial)
}

// serialDecision is the profiling-mode plan: the serial mapping, remembered
// as the previous one.
func (m *Manager) serialDecision(serial float64) Decision {
	m.lastMapping, m.planned = partition.Serial(), true
	return Decision{Mapping: m.lastMapping, PredictedMs: serial, SerialMs: serial}
}

// planWithDemand chooses a mapping for the per-task demand in m.demand
// (indexed by task; an entry that is not positive is a task without demand)
// under the current budget: sticky hysteresis first, then greedy stripe
// doubling. Shared by the predictor-driven and steered planning paths.
// Sums and tie-breaks run in task-index order, so a decision is a function
// of the observation series alone.
func (m *Manager) planWithDemand(serial float64) Decision {
	dec := Decision{PredictedMs: serial, SerialMs: serial}
	budget := m.BudgetMs * m.Headroom
	demand := &m.demand
	for ti, ms := range demand {
		if !(ms > 0) { // also a NaN forecast
			demand[ti] = 0
		}
	}

	// Hysteresis: when the previous mapping still meets the budget for the
	// current demand, keep it verbatim.
	if m.Sticky && m.planned {
		total := 0.0
		for ti, ms := range demand {
			if ms > 0 { // a striped task without demand costs nothing, not a fork/join
				total += m.estStripedMs(ms, m.lastMapping.StripesAt(ti))
			}
		}
		if total <= budget {
			dec.Mapping = m.lastMapping
			dec.PredictedMs = total
			return dec
		}
	}

	// Greedy repartitioning: while over budget, double the stripe count of
	// the task with the largest current estimated time that still has
	// stripe capacity. A task without demand estimates to zero and gains
	// nothing from striping, so it is never picked.
	var mp partition.Mapping
	est := *demand
	total := func() float64 {
		t := 0.0
		for _, ms := range est {
			t += ms
		}
		return t
	}
	for total() > budget {
		// Pick the best candidate to stripe further.
		best, bestK := -1, 0
		bestGain := 0.0
		for ti, ms := range demand {
			maxK, k := m.maxStripesFor(ti), mp.StripesAt(ti)
			if k >= maxK {
				continue
			}
			next := k * 2
			if next > maxK {
				next = maxK
			}
			if gain := est[ti] - m.estStripedMs(ms, next); gain > bestGain {
				bestGain = gain
				best, bestK = ti, next
			}
		}
		if best < 0 {
			break // no task can be split further profitably
		}
		mp = mp.WithAt(best, bestK)
		est[best] = m.estStripedMs(demand[best], bestK)
	}

	dec.PredictedMs = total()
	dec.Mapping, dec.Repartition = mp, mp != m.lastMapping
	m.lastMapping, m.planned = mp, true
	return dec
}

// Observe feeds the executed frame back to the predictor (the paper's
// profiling step: statistics of the differences between consumed and
// predicted resources drive on-line model training) and, when a Budgeter is
// installed, adapts the latency budget from obs.LatencyMs.
func (m *Manager) Observe(obs core.Observation) {
	m.predictor.Observe(obs)
	if m.Budgeter != nil && m.BudgetMs > 0 {
		if b, err := m.Budgeter.Observe(m.BudgetMs, obs.LatencyMs); err == nil {
			m.BudgetMs = b
			m.recordBudget()
		}
	}
}

// Step runs one frame of the paper's runtime-manager loop on eng: plan from
// the prediction (the serial mapping when first — the initialization frame,
// processed serially to measure the starting point), process f, take the
// latency budget from that first frame when none is set, and feed the
// measurement back. obs receives the frame's dense observation. A failed
// frame returns the engine's error unwrapped and leaves the manager
// unobserved.
func (m *Manager) Step(eng *pipeline.Engine, f *frame.Frame, first bool, framePixels int, obs *core.Observation) (Decision, pipeline.Report, error) {
	var dec Decision // the zero Decision is the serial mapping
	if !first {
		dec = m.Plan()
	}
	rep, err := eng.Process(f, dec.Mapping)
	if err != nil {
		return dec, rep, err
	}
	if first && m.BudgetMs <= 0 {
		m.InitBudget(rep.LatencyMs)
	}
	core.DenseFromReport(&rep, framePixels, obs)
	m.Observe(*obs)
	return dec, rep, nil
}

// Result aggregates a managed run for the Fig. 7 comparison.
type Result struct {
	Reports    []pipeline.Report
	Decisions  []Decision
	Processing []float64 // per-frame processing latency
	Output     []float64 // per-frame output latency after the regulator
	Regulator  Regulator
}

// RunManaged executes n frames with per-frame prediction-driven
// repartitioning: the paper's semi-automatic parallelization loop
// (initialization on the first frame, runtime adaptation, profiling).
func RunManaged(eng *pipeline.Engine, mgr *Manager, n int, source func(int) *frame.Frame, framePixels int) (Result, error) {
	if eng == nil || mgr == nil {
		return Result{}, errors.New("sched: nil engine or manager")
	}
	if n <= 0 {
		return Result{}, errors.New("sched: need at least one frame")
	}
	var res Result
	var obs core.Observation
	for i := 0; i < n; i++ {
		dec, rep, err := mgr.Step(eng, source(i), i == 0, framePixels, &obs)
		if err != nil {
			return Result{}, fmt.Errorf("sched: frame %d: %w", i, err)
		}
		res.add(dec, rep)
	}
	res.regulate(mgr.BudgetMs)
	return res, nil
}

// add appends one managed frame to the result.
func (r *Result) add(dec Decision, rep pipeline.Report) {
	r.Reports = append(r.Reports, rep)
	r.Decisions = append(r.Decisions, dec)
	r.Processing = append(r.Processing, rep.LatencyMs)
}

// regulate derives the output latency series once the run's budget is final.
func (r *Result) regulate(budgetMs float64) {
	r.Regulator = Regulator{BudgetMs: budgetMs}
	r.Output = r.Regulator.Regulate(r.Processing)
}

// RunStraightforward executes n frames with the static serial mapping — the
// paper's baseline whose latency varies between 60 and 120 ms (Fig. 7's red
// curve).
func RunStraightforward(eng *pipeline.Engine, n int, source func(int) *frame.Frame) ([]pipeline.Report, []float64, error) {
	reports, err := eng.RunSequence(n, source, partition.Serial())
	if err != nil {
		return nil, nil, err
	}
	return reports, pipeline.Latencies(reports), nil
}

// CompareFig7 summarizes the two runs the way the paper's Section 7 does.
type CompareFig7 struct {
	StraightWorstVsAvg float64 // ~85% in the paper
	ManagedWorstVsAvg  float64 // ~20% in the paper
	JitterReduction    float64 // ~70% in the paper
	OverrunRate        float64 // fraction of managed frames over budget
	BudgetMs           float64
}

// Summarize computes the Fig. 7 comparison numbers from a straightforward
// latency series and a managed run.
func Summarize(straight []float64, managed Result) (CompareFig7, error) {
	sw, err := WorstVsAverage(straight)
	if err != nil {
		return CompareFig7{}, err
	}
	mw, err := WorstVsAverage(managed.Output)
	if err != nil {
		return CompareFig7{}, err
	}
	jr, err := JitterReduction(straight, managed.Output)
	if err != nil {
		return CompareFig7{}, err
	}
	return CompareFig7{
		StraightWorstVsAvg: sw,
		ManagedWorstVsAvg:  mw,
		JitterReduction:    jr,
		OverrunRate:        managed.Regulator.OverrunRate(managed.Processing),
		BudgetMs:           managed.Regulator.BudgetMs,
	}, nil
}
