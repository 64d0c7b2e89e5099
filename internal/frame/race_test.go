//go:build race

package frame

// racePoolMallocs is the allowance the pooled paths' allocation pins make for
// the race detector: under it sync.Pool drops a quarter of what it is handed,
// so a pooled scratch (the struct, its rows and its taps) is reallocated on
// about one call in four.
const racePoolMallocs = 3
