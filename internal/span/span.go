// Package span is the per-frame span tracing layer behind the serving
// stack's flight recorder: an always-on, fixed-size, lock-light ring of
// fixed-size event records (frame root spans, child task spans with
// predicted-vs-actual times, and instant events for rebalances,
// degradations, faults, restarts and quarantines), plus a trigger engine
// that snapshots the ring into a Chrome trace-event / Perfetto-loadable
// JSON dump when something goes wrong (deadline miss, task panic,
// quarantine, prediction error past a threshold).
//
// Aggregate telemetry (internal/metrics) answers "the p99 slipped"; this
// package answers "what happened inside frame 4711": which task ran where,
// for how long, under which scenario and quality rung, against which
// prediction — the causal record the paper's per-frame resource accounting
// (Table 2b, Eq. 1-3) implies but counters cannot carry.
//
// Recording discipline: the steady-state frame path allocates nothing.
// Events are fixed-size value records (no strings, no maps — small integer
// ids resolved against a Meta label table only at dump time), staged in a
// per-engine FrameBuilder (single-writer, fixed arrays) and committed to
// the shared ring under one short mutex hold per frame. Every method is
// nil-safe so callers carry no tracing-enabled branches.
package span

import (
	"sync"
	"time"
)

// Kind classifies one ring event.
type Kind uint8

// Event kinds. KindFrame and KindTask are complete spans (StartNs+DurNs);
// everything else is an instant event.
const (
	// KindFrame is a frame root span: one per frame that entered the
	// pipeline. Arg0 = predicted total ms, Arg1 = actual (modeled) latency
	// ms, Arg2 = budget ms; Outcome classifies how the frame ended.
	KindFrame Kind = iota
	// KindTask is a child task span within a frame. Arg0 = predicted ms
	// (0 until the predictor scores the frame), Arg1 = actual modeled ms,
	// Cores = stripe count; Scenario/Quality are stamped at frame commit.
	KindTask
	// KindSuppressed marks a task withheld this frame by the quality level
	// or an open circuit.
	KindSuppressed
	// KindScenarioMiss marks a frame whose executed scenario differed from
	// the Markov state table's forecast. Arg0 = predicted scenario index,
	// Scenario = the scenario that actually ran.
	KindScenarioMiss
	// KindSkip marks a frame shed by the admission controller.
	KindSkip
	// KindAbandon marks a frame given up past the wall-clock watchdog.
	KindAbandon
	// KindStall marks an engine declared stalled (poisoned) past StallMs.
	KindStall
	// KindFault is an injected fault (internal/fault). Arg0 = fault code
	// (see FaultPanic..FaultCorrupt).
	KindFault
	// KindBreakerTrip marks a per-task circuit breaker opening.
	KindBreakerTrip
	// KindRebalance is a cross-stream core re-division. Pack0/Pack1 carry
	// the before/after per-stream core allocations (see PackBudgets);
	// Cores = how many streams are packed.
	KindRebalance
	// KindDegrade is a quality-ladder transition. Arg0 = previous rung,
	// Quality = new rung.
	KindDegrade
	// KindRestart marks a supervisor restart of a stream's serving loop.
	KindRestart
	// KindQuarantine marks a stream retired after exhausting its restarts.
	KindQuarantine
	// KindTrigger records a flight-recorder trigger firing. Outcome = the
	// TriggerReason, Arg0 = the reason-specific detail.
	KindTrigger
	// KindPromote is a predictor-promotion state-machine transition
	// (internal/promote). Arg0 = previous state, Outcome = new state (see
	// PromoteStateName), Arg1 = the challenger's shadow-roster slot.
	KindPromote
)

// KindName returns a stable lowercase label for the kind.
func KindName(k Kind) string {
	switch k {
	case KindFrame:
		return "frame"
	case KindTask:
		return "task"
	case KindSuppressed:
		return "suppressed"
	case KindScenarioMiss:
		return "scenario_miss"
	case KindSkip:
		return "skip"
	case KindAbandon:
		return "abandon"
	case KindStall:
		return "stall"
	case KindFault:
		return "fault"
	case KindBreakerTrip:
		return "breaker_trip"
	case KindRebalance:
		return "rebalance"
	case KindDegrade:
		return "degrade"
	case KindRestart:
		return "restart"
	case KindQuarantine:
		return "quarantine"
	case KindTrigger:
		return "trigger"
	case KindPromote:
		return "promote"
	}
	return "unknown"
}

// Predictor-promotion states (Event.Outcome / Arg0 on KindPromote). The
// promotion controller's State mirrors these values so span events, dump
// metadata and /healthz all speak the same enum.
const (
	PromoteShadow = iota
	PromoteCanary
	PromotePromoted
	PromoteRolledBack
	PromoteQuarantined
)

// PromoteStateName renders a promotion state.
func PromoteStateName(s int32) string {
	switch s {
	case PromoteShadow:
		return "shadow"
	case PromoteCanary:
		return "canary"
	case PromotePromoted:
		return "promoted"
	case PromoteRolledBack:
		return "rolled-back"
	case PromoteQuarantined:
		return "quarantined"
	}
	return "unknown"
}

// Frame outcomes (Event.Outcome on KindFrame).
const (
	OutcomeProcessed = iota
	OutcomeFailed
	OutcomeAbandoned
)

// OutcomeName renders a frame outcome.
func OutcomeName(o int32) string {
	switch o {
	case OutcomeProcessed:
		return "processed"
	case OutcomeFailed:
		return "failed"
	case OutcomeAbandoned:
		return "abandoned"
	}
	return "unknown"
}

// Fault codes (Event.Arg0 on KindFault), matching internal/fault's classes.
const (
	FaultPanic = iota
	FaultHang
	FaultSpike
	FaultCorrupt
)

// FaultName renders a fault code.
func FaultName(c int) string {
	switch c {
	case FaultPanic:
		return "panic"
	case FaultHang:
		return "hang"
	case FaultSpike:
		return "spike"
	case FaultCorrupt:
		return "corrupt"
	}
	return "unknown"
}

// Event is one fixed-size ring record. It carries no pointers so recording
// never allocates; integer ids resolve against the recorder's Meta tables
// only when a dump is rendered. Unused fields are zero; Task and Scenario
// use -1 for "not applicable".
type Event struct {
	Kind     Kind
	Stream   int32 // stream index, -1 for global events
	Frame    int32 // frame index within the stream
	Task     int32 // task id (tasks.IndexOf order), -1 if none
	Scenario int32 // flowgraph scenario index 0..7, -1 if unknown
	Quality  int32 // degradation rung
	Cores    int32 // stripes (task), core budget (frame), count (rebalance)
	Outcome  int32 // frame outcome or trigger reason
	StartNs  int64 // ns since the recorder epoch
	DurNs    int64 // span duration (0 for instants)
	Arg0     float64
	Arg1     float64
	Arg2     float64
	Pack0    uint64 // packed budgets (rebalance: before)
	Pack1    uint64 // packed budgets (rebalance: after)
}

// Meta is the label table used to render integer event ids at dump time.
// Missing entries fall back to generic "<prefix><id>" labels, so recording
// never depends on the tables being complete.
type Meta struct {
	Streams   []string
	Tasks     []string
	Scenarios []string
	Qualities []string
	// Predictor names the deployed prediction backend; it is stamped into
	// dump metadata so a recorded incident can be tied back to the
	// predictor that was steering the scheduler when it happened.
	Predictor string
	// Promotion is the promotion controller's current position, e.g.
	// "shadow" or "canary:quantile-p90" — empty when no controller runs.
	// Updated in place on every transition via SetPromotion.
	Promotion string
}

// PackBudgets packs up to 8 per-stream core budgets (clamped to 0..255)
// into one uint64, byte per stream, so a rebalance instant's before and
// after allocations each fit one packed word of a fixed-size Event.
// Returns the packed word and how many budgets fit.
func PackBudgets(budgets []int) (p uint64, n int32) {
	for i, b := range budgets {
		if i >= 8 {
			break
		}
		if b < 0 {
			b = 0
		}
		if b > 255 {
			b = 255
		}
		p |= uint64(b) << (8 * uint(i))
		n++
	}
	return p, n
}

// Recorder is the always-on, fixed-size span ring. Writers from any
// goroutine append under one short mutex hold; the ring never grows, so a
// recorder's memory footprint is fixed at construction. All methods are
// nil-safe.
type Recorder struct {
	epoch time.Time

	mu     sync.Mutex
	ring   []Event
	head   uint64 // total events ever written
	frames uint64 // total frame spans ever committed

	// onFrame, when set (before the first commit), is invoked after every
	// frame commit with the total frame count — the flight recorder's
	// after-window clock. It runs outside the ring mutex on the committing
	// goroutine and must be cheap on the no-trigger path.
	onFrame func(frames uint64)

	metaMu sync.RWMutex
	meta   Meta
}

// DefaultRingEvents is the default ring capacity: at ~11 events per frame
// (root + up to 9 tasks + an instant) it retains on the order of 700
// frames of history.
const DefaultRingEvents = 8192

// NewRecorder builds a recorder with a fixed ring of size events (0 or
// negative = DefaultRingEvents). Tracing is switched off by not having a
// recorder: a nil *Recorder, and a nil or recorder-less FrameBuilder, are
// no-ops on every path.
func NewRecorder(size int) *Recorder {
	if size <= 0 {
		size = DefaultRingEvents
	}
	return &Recorder{epoch: time.Now(), ring: make([]Event, size)}
}

// SetMeta installs the label tables used when rendering dumps.
func (r *Recorder) SetMeta(m Meta) {
	if r == nil {
		return
	}
	r.metaMu.Lock()
	r.meta = m
	r.metaMu.Unlock()
}

// SetPromotion updates only the promotion label of the current meta —
// the promotion controller calls it on every state transition so dumps
// written later carry the position at dump time. Nil-safe.
func (r *Recorder) SetPromotion(label string) {
	if r == nil {
		return
	}
	r.metaMu.Lock()
	r.meta.Promotion = label
	r.metaMu.Unlock()
}

// Meta returns the current label tables.
func (r *Recorder) Meta() Meta {
	if r == nil {
		return Meta{}
	}
	r.metaMu.RLock()
	defer r.metaMu.RUnlock()
	return r.meta
}

// Now returns nanoseconds since the recorder epoch (the timestamp base of
// every event). Allocation-free.
func (r *Recorder) Now() int64 {
	if r == nil {
		return 0
	}
	return int64(time.Since(r.epoch))
}

// Emit appends one instant event to the ring. A zero StartNs is stamped
// with the current time. Safe from any goroutine; allocation-free.
func (r *Recorder) Emit(ev Event) {
	if r == nil {
		return
	}
	if ev.StartNs == 0 {
		ev.StartNs = r.Now()
	}
	r.mu.Lock()
	r.push(ev)
	r.mu.Unlock()
}

// push appends under r.mu.
func (r *Recorder) push(ev Event) {
	r.ring[int(r.head%uint64(len(r.ring)))] = ev
	r.head++
}

// commitFrame appends a frame's staged events followed by its root span in
// one critical section, counts the frame, and fires the frame hook. The
// root goes last so a ring wraparound truncates a frame's oldest task
// spans before ever orphaning them from their root.
func (r *Recorder) commitFrame(staged []Event, root Event) {
	if r == nil {
		return
	}
	r.mu.Lock()
	for i := range staged {
		r.push(staged[i])
	}
	r.push(root)
	r.frames++
	frames := r.frames
	hook := r.onFrame
	r.mu.Unlock()
	if hook != nil {
		hook(frames)
	}
}

// FramesCommitted returns how many frame spans have ever been committed.
func (r *Recorder) FramesCommitted() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.frames
}

// Snapshot copies the ring's current contents, oldest first. It allocates
// and is meant for the dump path only.
func (r *Recorder) Snapshot() []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.head
	if n > uint64(len(r.ring)) {
		n = uint64(len(r.ring))
	}
	out := make([]Event, n)
	start := r.head - n
	for i := uint64(0); i < n; i++ {
		out[i] = r.ring[int((start+i)%uint64(len(r.ring)))]
	}
	return out
}

// Per-frame staging capacities: the flow graph runs at most 10 tasks per
// frame, and instants (suppressions, scenario misses) are few.
const (
	maxFrameTasks    = 12
	maxFrameInstants = 8
)

// FrameBuilder stages one engine's current frame before it is committed to
// the ring as an atomic group. It is single-writer: exactly one goroutine
// (the one executing Engine.Process, then the stream's serving goroutine)
// touches it at a time, which the serving layer guarantees by giving every
// engine its own builder and abandoning a builder together with a stalled
// engine. All methods are nil-safe and allocation-free.
type FrameBuilder struct {
	rec    *Recorder
	stream int32

	open    bool
	frame   int32
	startNs int64
	cur     int // staged index of the in-flight task span, -1 if none
	n       int
	staged  [maxFrameTasks + maxFrameInstants]Event
}

// NewFrameBuilder builds a staging buffer bound to one stream id.
func NewFrameBuilder(rec *Recorder, stream int32) *FrameBuilder {
	return &FrameBuilder{rec: rec, stream: stream, cur: -1}
}

func (b *FrameBuilder) active() bool {
	return b != nil && b.rec != nil
}

// BeginFrame opens a new frame, discarding any uncommitted previous one.
func (b *FrameBuilder) BeginFrame(frameIdx int) {
	if !b.active() {
		return
	}
	b.open = true
	b.frame = int32(frameIdx)
	b.startNs = b.rec.Now()
	b.cur = -1
	b.n = 0
}

// stage appends one event to the frame group, stamping stream and frame.
// Returns the staged index, or -1 when the group is full (the event is
// dropped — a frame can only overflow its fixed budget if the pipeline
// grows beyond the staging capacity, which the tests pin).
func (b *FrameBuilder) stage(ev Event) int {
	if b.n >= len(b.staged) {
		return -1
	}
	ev.Stream = b.stream
	ev.Frame = b.frame
	b.staged[b.n] = ev
	b.n++
	return b.n - 1
}

// BeginTask opens a task span within the current frame.
func (b *FrameBuilder) BeginTask(task int) {
	if !b.active() || !b.open {
		return
	}
	b.closeTask(0) // a dangling task span means the previous one never ended
	b.cur = b.stage(Event{Kind: KindTask, Task: int32(task), StartNs: b.rec.Now()})
}

// EndTask closes the in-flight task span with its modeled execution time
// and stripe count. The wall-clock duration is taken from the recorder
// clock; the predicted time arrives later via SetPredicted.
func (b *FrameBuilder) EndTask(actualMs float64, stripes int) {
	if !b.active() || b.cur < 0 {
		return
	}
	ev := &b.staged[b.cur]
	ev.DurNs = b.rec.Now() - ev.StartNs
	ev.Arg1 = actualMs
	ev.Cores = int32(stripes)
	b.cur = -1
}

// closeTask force-closes a dangling task span (panic unwind or a missing
// EndTask) with the given modeled time.
func (b *FrameBuilder) closeTask(actualMs float64) {
	if b.cur < 0 {
		return
	}
	ev := &b.staged[b.cur]
	ev.DurNs = b.rec.Now() - ev.StartNs
	ev.Arg1 = actualMs
	b.cur = -1
}

// AbortFrame closes any in-flight task span after a panic unwound the
// frame; the frame stays open so the serving layer can commit it with a
// failure outcome.
func (b *FrameBuilder) AbortFrame() {
	if !b.active() || !b.open {
		return
	}
	b.closeTask(0)
}

// Suppressed stages an instant marking a task withheld this frame.
func (b *FrameBuilder) Suppressed(task int) {
	if !b.active() || !b.open {
		return
	}
	b.stage(Event{Kind: KindSuppressed, Task: int32(task), StartNs: b.rec.Now()})
}

// ScenarioMiss stages an instant marking a Markov scenario misprediction
// for the current frame.
func (b *FrameBuilder) ScenarioMiss(predicted, actual int) {
	if !b.active() || !b.open {
		return
	}
	b.stage(Event{Kind: KindScenarioMiss, Scenario: int32(actual), Arg0: float64(predicted), StartNs: b.rec.Now()})
}

// SetPredicted fills the predicted execution time into the staged span of
// the given task (the predictor scores a frame only after it executed, so
// prediction data arrives between EndTask and Commit).
func (b *FrameBuilder) SetPredicted(task int, predictedMs float64) {
	if !b.active() || !b.open {
		return
	}
	for i := 0; i < b.n; i++ {
		if b.staged[i].Kind == KindTask && b.staged[i].Task == int32(task) {
			b.staged[i].Arg0 = predictedMs
			return
		}
	}
}

// Commit closes the staged frame and appends the whole group (task spans,
// instants, then the frame root) to the ring atomically. frameIdx is the
// serving layer's frame index (it overrides the engine-local index staged
// at BeginFrame, which resets when an engine is rebuilt); scenario and
// quality are stamped onto every staged task span so each task carries its
// frame context. No-op when no frame is open.
func (b *FrameBuilder) Commit(frameIdx, scenario, quality, outcome, cores int, predictedMs, actualMs, budgetMs float64) {
	if !b.active() || !b.open {
		return
	}
	b.closeTask(0)
	for i := 0; i < b.n; i++ {
		b.staged[i].Frame = int32(frameIdx)
		if b.staged[i].Kind == KindTask {
			b.staged[i].Scenario = int32(scenario)
			b.staged[i].Quality = int32(quality)
		}
	}
	root := Event{
		Kind:     KindFrame,
		Stream:   b.stream,
		Frame:    int32(frameIdx),
		Task:     -1,
		Scenario: int32(scenario),
		Quality:  int32(quality),
		Cores:    int32(cores),
		Outcome:  int32(outcome),
		StartNs:  b.startNs,
		DurNs:    b.rec.Now() - b.startNs,
		Arg0:     predictedMs,
		Arg1:     actualMs,
		Arg2:     budgetMs,
	}
	b.rec.commitFrame(b.staged[:b.n], root)
	b.open = false
	b.n = 0
	b.cur = -1
}
