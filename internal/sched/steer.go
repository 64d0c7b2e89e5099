package sched

import "triplec/internal/core"

// This file is the live-swappable demand seam the promotion controller
// (internal/promote) steers: a promoted shadow backend's dense forecast
// replaces the manager's own predictor in Plan and PredictedDemandMs. The
// source is installed and removed with a single atomic pointer swap from
// the controller's goroutine while the manager keeps planning on its own —
// rollback is one Store away and takes effect at the very next Plan. The
// manager's predictor continues to observe every frame regardless of
// steering, so the baseline is warm the instant a rollback lands.

// steerBox wraps the interface so it can live in an atomic.Pointer.
type steerBox struct{ src core.DemandSource }

// SetDemandSource steers the manager's planning by the given forecast
// source; nil restores the built-in predictor. Safe to call concurrently
// with Plan.
func (m *Manager) SetDemandSource(src core.DemandSource) {
	if src == nil {
		m.steerSrc.Store(nil)
		return
	}
	m.steerSrc.Store(&steerBox{src: src})
}

func (m *Manager) demandSource() core.DemandSource {
	if box := m.steerSrc.Load(); box != nil {
		return box.src
	}
	return nil
}

// DemandSourceName reports which forecast currently drives planning: the
// steering source's name, or core.BackendBaseline when unsteered. This is
// the signal rollback-latency checks watch.
func (m *Manager) DemandSourceName() string {
	if src := m.demandSource(); src != nil {
		return src.SourceName()
	}
	return core.BackendBaseline
}

// planSteered plans from an external dense forecast instead of the
// manager's own predictor: the per-task demand is the forecast's masked
// task vector and the serial estimate its total. The budget check, sticky
// hysteresis and greedy striping are shared with the unsteered path.
func (m *Manager) planSteered(p *core.Prediction) Decision {
	serial := p.TotalMs
	if m.BudgetMs <= 0 {
		return m.serialDecision(serial)
	}
	for ti := range m.demand {
		m.demand[ti] = 0
		if p.Mask&(uint16(1)<<uint(ti)) != 0 {
			m.demand[ti] = p.Ms[ti]
		}
	}
	return m.planWithDemand(serial)
}
