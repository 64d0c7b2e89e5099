package shadow

import "triplec/internal/core"

// BackendNames returns the roster names in slot order (slot 0 = deployed
// baseline / regret reference). The roster is fixed at construction.
func (b *Board) BackendNames() []string {
	names := make([]string, len(b.backends))
	for i, st := range b.backends {
		names[i] = st.name
	}
	return names
}

// SlotOf returns the roster slot of the named backend, or -1.
func (b *Board) SlotOf(name string) int {
	for i, st := range b.backends {
		if st.name == name {
			return i
		}
	}
	return -1
}

// CopyPrediction copies the named slot's standing forecast into *dst and
// reports whether one is usable: the board has driven at least one frame,
// the backend's last drive succeeded, and it is not quarantined.
// Allocation-free; safe for concurrent use.
func (b *Board) CopyPrediction(slot int, dst *core.FramePrediction) bool {
	if slot < 0 || slot >= len(b.backends) {
		return false
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	st := b.backends[slot]
	if !b.havePred || st.quarantined || !st.predValid {
		return false
	}
	*dst = st.pred
	return true
}

// Steer is a core.DemandSource view of one roster slot's standing
// forecast: installing it on a sched.Manager makes that backend steer the
// plan. It holds the board's lock only for the duration of one copy.
type Steer struct {
	b    *Board
	slot int
	name string
}

// Steer returns a demand-source view of the given roster slot. The tiny
// adapter allocates; build it at promotion time, not on the frame path.
func (b *Board) Steer(slot int) *Steer {
	name := ""
	if slot >= 0 && slot < len(b.backends) {
		name = b.backends[slot].name // immutable after NewBoard
	}
	return &Steer{b: b, slot: slot, name: name}
}

// DemandInto implements core.DemandSource.
func (s *Steer) DemandInto(dst *core.FramePrediction) bool {
	return s.b.CopyPrediction(s.slot, dst)
}

// SourceName implements core.DemandSource.
func (s *Steer) SourceName() string { return s.name }
