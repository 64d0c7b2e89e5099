//go:build race

package stream

// raceScale widens the wall-clock thresholds (watchdogs, stall limits,
// injected hang durations) in the timing-sensitive tests: under the race
// detector frames run many times slower, and an unscaled watchdog would
// abandon healthy frames.
const raceScale = 8.0

// racePoolMallocs is the allowance the control-plane allocation budget makes
// for the race detector: under it sync.Pool drops a quarter of what it is
// handed, so pooled frames, scratch and span buffers are partly reallocated
// every frame (4.7-4.9 allocations a frame where 0.4 are made without it).
const racePoolMallocs = 6
