//go:build !race

package pipeline

// racePoolMallocs is 0 without the race detector; see race_test.go.
const racePoolMallocs = 0
