package core

// DemandSource is a live-swappable next-frame forecast provider the runtime
// manager can be steered by (internal/promote's guarded switchover): when a
// shadow backend is promoted, the manager plans from this source's dense
// forecast instead of its own predictor's, and the tail guard feeds a
// quantile source's P90 total into the deadline-miss headroom. A source
// must be safe to read from the manager's goroutine while another goroutine
// installs or removes it, and DemandInto must not allocate — it runs on the
// steady-state frame path.
type DemandSource interface {
	// DemandInto copies the source's standing forecast into *dst and
	// reports whether a usable forecast exists. Returning false tells the
	// manager to fall back to its own predictor (the rollback path and the
	// cold-start path are the same branch).
	DemandInto(dst *Prediction) bool
	// SourceName identifies the backend behind the forecast for /healthz
	// and dump metadata.
	SourceName() string
}
