//go:build race

package pipeline

// racePoolMallocs is the allowance the per-frame allocation budget makes for
// the race detector: under it sync.Pool drops a quarter of what it is handed,
// so the pooled frames and kernel scratch are partly reallocated every frame.
const racePoolMallocs = 6

// stripeFrames512 is how many 512x512 frames the host-stripe differential
// test serves: fewer under the race detector, which runs the kernels an
// order of magnitude slower.
const stripeFrames512 = 12
