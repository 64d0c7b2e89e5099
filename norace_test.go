//go:build !race

package triplec

// raceEnabled is false without the race detector; see race_test.go.
const raceEnabled = false
