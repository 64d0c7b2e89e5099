//go:build !race

package pipeline

// racePoolMallocs is 0 without the race detector; see race_test.go.
const racePoolMallocs = 0

// stripeFrames512 is how many 512x512 frames the host-stripe differential
// test serves (and a third as many of its odd-height stream).
const stripeFrames512 = 210
