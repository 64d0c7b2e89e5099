//go:build race

package tasks

// racePoolMallocs is the allowance the steady-state allocation pins make for
// the race detector: under it sync.Pool drops a quarter of what it is handed,
// so pooled frames and kernel scratch are partly reallocated every call.
const racePoolMallocs = 3
