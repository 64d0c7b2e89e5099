package stats

import (
	"math/bits"
	"sync/atomic"
)

// BitWindowSize is the capacity of a BitWindow: one machine word of samples.
const BitWindowSize = 64

// BitWindow is a sliding window over the last BitWindowSize boolean samples
// — the rolling deadline-miss, scenario-hit and forecast-accuracy rates of
// the serving layer, /healthz and the promotion guardrails. A push is a
// shift into one word. One goroutine may push while any number read: a
// reader always sees the exact window of some recent moment, because the
// writer publishes the word before the count and readers load them in the
// opposite order. The zero value is an empty window; a BitWindow must not be
// copied after first use.
type BitWindow struct {
	word atomic.Uint64 // newest sample in the lowest bit
	n    atomic.Uint32 // samples held, saturating at BitWindowSize
}

// Push shifts one sample in, dropping the oldest once the window is full.
func (w *BitWindow) Push(b bool) {
	bit := uint64(0)
	if b {
		bit = 1
	}
	w.word.Store(w.word.Load()<<1 | bit)
	if n := w.n.Load(); n < BitWindowSize {
		w.n.Store(n + 1)
	}
}

// Rate returns the fraction of true samples in the window and how many
// samples back it; 0, 0 while the window is empty.
func (w *BitWindow) Rate() (rate float64, samples int) {
	n := w.n.Load()
	if n == 0 {
		return 0, 0
	}
	word := w.word.Load()
	if n < BitWindowSize {
		word &= 1<<n - 1
	}
	return float64(bits.OnesCount64(word)) / float64(n), int(n)
}

// Reset empties the window. Writer-side, like Push.
func (w *BitWindow) Reset() {
	w.n.Store(0)
	w.word.Store(0)
}
