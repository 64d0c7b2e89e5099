package fault

import (
	"sync"

	"triplec/internal/tasks"
)

// BreakerState is one task's circuit state.
type BreakerState int

// The classic three breaker states.
const (
	// BreakerClosed: the task runs normally; outcomes feed the window.
	BreakerClosed BreakerState = iota
	// BreakerOpen: the task is suppressed; after breakerOpenFrames refusals
	// the circuit moves to half-open.
	BreakerOpen
	// BreakerHalfOpen: exactly one probe execution is admitted; its outcome
	// closes the circuit again or re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// The breaker's policy. Timing is counted in frames (Allow calls), not wall
// clock, so breaker behaviour is deterministic under test and independent of
// host speed.
const (
	// breakerWindow is the rolling per-task outcome window.
	breakerWindow = 16
	// breakerMinSamples is how many outcomes the window needs before the
	// failure rate can trip the circuit.
	breakerMinSamples = 4
	// breakerTripRate is the failure fraction within the window that opens
	// the circuit.
	breakerTripRate = 0.5
	// breakerOpenFrames is how many Allow refusals an open circuit serves
	// before admitting a half-open probe.
	breakerOpenFrames = 16
)

// circuit is one task's breaker state.
type circuit struct {
	state    BreakerState
	window   [breakerWindow]bool // ring of recent outcomes (true = ok)
	next     int                 // ring write position
	filled   int                 // samples in the ring
	cooldown int                 // remaining Allow refusals while open
	probing  bool                // half-open probe currently admitted
}

func (c *circuit) record(ok bool) {
	if c.filled < len(c.window) {
		c.filled++
	}
	c.window[c.next] = ok
	c.next = (c.next + 1) % len(c.window)
}

func (c *circuit) failRate() (rate float64, samples int) {
	fails := 0
	for i := 0; i < c.filled; i++ {
		if !c.window[i] {
			fails++
		}
	}
	if c.filled == 0 {
		return 0, 0
	}
	return float64(fails) / float64(c.filled), c.filled
}

func (c *circuit) reset() {
	c.filled, c.next = 0, 0
	c.probing = false
}

// Breaker tracks per-task failure rates and suppresses tasks whose circuit
// is open, probing half-open after a frame-counted cool-down. It implements
// the pipeline's TaskGate hook and is safe for concurrent use (a stalled
// frame's late goroutine may record against a restarted stream's breaker).
type Breaker struct {
	// OnTrip, when set before first use, observes every circuit opening —
	// the span layer's breaker-trip instant. It runs under the breaker's
	// lock and must not call back in or block.
	OnTrip func(task tasks.Name)

	mu    sync.Mutex
	tasks [tasks.NumNames]circuit // by tasks.IndexOf
}

// NewBreaker builds a breaker with every circuit closed.
func NewBreaker() *Breaker { return &Breaker{} }

// circuitFor returns the task's circuit; the gate is asked only about the
// flow graph's tasks.
func (b *Breaker) circuitFor(task tasks.Name) *circuit { return &b.tasks[tasks.IndexOf(task)] }

// Allow reports whether the task may execute now. An open circuit refuses
// and counts down toward half-open; a half-open circuit admits exactly one
// probe until its outcome is recorded.
func (b *Breaker) Allow(task tasks.Name) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuitFor(task)
	switch c.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		c.cooldown--
		if c.cooldown <= 0 {
			c.state = BreakerHalfOpen
			c.probing = true
			return true
		}
		return false
	case BreakerHalfOpen:
		if !c.probing {
			c.probing = true
			return true
		}
		return false
	}
	return true
}

// Record feeds one execution outcome back. In the closed state a window
// failure rate at or above breakerTripRate (with breakerMinSamples seen)
// opens the circuit; in the half-open state a successful probe closes it and
// a failed probe re-opens it for another full cool-down.
func (b *Breaker) Record(task tasks.Name, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	c := b.circuitFor(task)
	switch c.state {
	case BreakerClosed:
		c.record(ok)
		if rate, n := c.failRate(); n >= breakerMinSamples && rate >= breakerTripRate {
			c.state = BreakerOpen
			c.cooldown = breakerOpenFrames
			c.reset()
			if b.OnTrip != nil {
				b.OnTrip(task)
			}
		}
	case BreakerHalfOpen:
		if ok {
			c.state = BreakerClosed
			c.reset()
		} else {
			c.state = BreakerOpen
			c.cooldown = breakerOpenFrames
			c.probing = false
			if b.OnTrip != nil {
				b.OnTrip(task)
			}
		}
	case BreakerOpen:
		// A late outcome from a frame started before the trip: ignore.
	}
}
