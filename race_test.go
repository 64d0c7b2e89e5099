//go:build race

package triplec

// raceEnabled skips the source-only reachability guard under the race
// detector, which it would only slow down.
const raceEnabled = true
