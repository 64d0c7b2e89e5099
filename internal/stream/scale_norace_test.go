//go:build !race

package stream

// raceScale is 1 without the race detector; see scale_race_test.go.
const raceScale = 1.0

// racePoolMallocs is 0 without the race detector; see scale_race_test.go.
const racePoolMallocs = 0
