package slo

// Multi-window, multi-burn-rate SLO engine, frame-indexed so that every
// replay is deterministic. This is the Google-SRE alerting recipe with
// wall-clock windows replaced by fleet-frame windows: a *fast* window
// catches sharp error-budget burns (page), a *slow* window catches
// sustained slow leaks (ticket). Burn rate is badFraction/(1-objective):
// burn 1.0 means the budget is consumed exactly at the sustainable rate,
// burn 8 means eight times too fast.

// SLOKind identifies one tracked objective.
type SLOKind uint8

// The tracked SLOs.
const (
	// SLODeadline: fraction of served frames meeting their deadline.
	SLODeadline SLOKind = iota
	// SLOAccuracy: fraction of served frames whose latency prediction
	// landed within 25% of the measured value.
	SLOAccuracy

	// NumSLOs is the number of tracked objectives.
	NumSLOs = int(SLOAccuracy) + 1
)

var sloNames = [NumSLOs]string{"deadline", "accuracy"}

// String returns the SLO's stable label name (allocation-free).
func (k SLOKind) String() string {
	if int(k) < NumSLOs {
		return sloNames[k]
	}
	return "unknown"
}

// AlertState is the per-SLO alert severity.
type AlertState uint8

// Alert severities, escalating.
const (
	AlertOK AlertState = iota
	AlertTicket
	AlertPage
)

var alertNames = [...]string{"ok", "ticket", "page"}

// String returns the state's stable label name (allocation-free).
func (a AlertState) String() string {
	if int(a) < len(alertNames) {
		return alertNames[a]
	}
	return "unknown"
}

// boolRing is a fixed-size bitset ring over good/bad frame outcomes:
// O(1) push, O(1) bad count, no allocation after construction.
type boolRing struct {
	words []uint64
	size  int
	n     int // filled entries (<= size)
	idx   int // next write position
	bad   int // bad entries currently in the window
}

func newBoolRing(size int) *boolRing {
	if size < 1 {
		size = 1
	}
	return &boolRing{words: make([]uint64, (size+63)/64), size: size}
}

func (r *boolRing) push(bad bool) {
	w, b := r.idx/64, uint(r.idx%64)
	if r.n == r.size { // evict the bit being overwritten
		if r.words[w]&(1<<b) != 0 {
			r.bad--
		}
	} else {
		r.n++
	}
	if bad {
		r.words[w] |= 1 << b
		r.bad++
	} else {
		r.words[w] &^= 1 << b
	}
	r.idx++
	if r.idx == r.size {
		r.idx = 0
	}
}

func (r *boolRing) full() bool { return r.n == r.size }

// badFraction is bad/n (0 when empty).
func (r *boolRing) badFraction() float64 {
	if r.n == 0 {
		return 0
	}
	return float64(r.bad) / float64(r.n)
}

// BurnConfig parameterizes one tracked SLO.
type BurnConfig struct {
	// Objective is the target good fraction, e.g. 0.95 = 95% of frames
	// meet their deadline. Error budget is 1-Objective.
	Objective float64
}

// The burn-rate windows, in frames, and thresholds every SLO uses: page
// when the fast window burns >= pageBurn, ticket when the slow window burns
// >= ticketBurn. Page takes precedence.
const (
	fastWindow = 64
	slowWindow = 512
	pageBurn   = 8
	ticketBurn = 2
)

func (c BurnConfig) withDefaults(objective float64) BurnConfig {
	if c.Objective <= 0 || c.Objective >= 1 {
		c.Objective = objective
	}
	return c
}

// sloState is the live burn-rate machinery for one SLO. Guarded by the
// tracker mutex.
type sloState struct {
	cfg   BurnConfig
	fast  *boolRing
	slow  *boolRing
	state AlertState
	bad   uint64 // cumulative bad frames
	good  uint64 // cumulative good frames
	pages uint64 // page transitions fired
	tix   uint64 // ticket transitions fired
}

func newSLOState(cfg BurnConfig) *sloState {
	return &sloState{
		cfg:  cfg,
		fast: newBoolRing(fastWindow),
		slow: newBoolRing(slowWindow),
	}
}

// burn converts a bad fraction into a burn rate against this SLO's
// error budget.
func (s *sloState) burn(badFraction float64) float64 {
	return badFraction / (1 - s.cfg.Objective)
}

func (s *sloState) fastBurn() float64 { return s.burn(s.fast.badFraction()) }
func (s *sloState) slowBurn() float64 { return s.burn(s.slow.badFraction()) }

// observe pushes one frame outcome and re-evaluates the alert state.
// Returns (old, new, changed). Alerts only evaluate on full rings so a
// cold start cannot page off two bad frames; until the fast ring fills,
// the state stays wherever it was (initially ok).
func (s *sloState) observe(bad bool) (AlertState, AlertState, bool) {
	s.fast.push(bad)
	s.slow.push(bad)
	if bad {
		s.bad++
	} else {
		s.good++
	}
	next := s.state
	switch {
	case s.fast.full() && s.fastBurn() >= pageBurn:
		next = AlertPage
	case s.slow.full() && s.slowBurn() >= ticketBurn:
		next = AlertTicket
	case s.fast.full():
		// Fast ring is full and under the page bar; clear a page. A
		// ticket only clears once the slow window also drains.
		if s.state == AlertPage {
			next = AlertOK
		}
		if s.state == AlertTicket && (!s.slow.full() || s.slowBurn() < ticketBurn) {
			next = AlertOK
		}
	}
	if next == s.state {
		return s.state, next, false
	}
	old := s.state
	s.state = next
	switch next {
	case AlertPage:
		s.pages++
	case AlertTicket:
		s.tix++
	}
	return old, next, true
}
