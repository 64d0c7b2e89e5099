package slo

// AlertStateOf returns the current alert state for one SLO.
func (t *Tracker) AlertStateOf(k SLOKind) AlertState {
	if t == nil || int(k) >= NumSLOs {
		return AlertOK
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.slos[k].state
}
