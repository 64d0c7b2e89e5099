//go:build !race

package frame

// racePoolMallocs is 0 without the race detector; see race_test.go.
const racePoolMallocs = 0
