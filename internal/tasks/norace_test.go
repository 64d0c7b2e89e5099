//go:build !race

package tasks

// racePoolMallocs is 0 without the race detector; see race_test.go.
const racePoolMallocs = 0
