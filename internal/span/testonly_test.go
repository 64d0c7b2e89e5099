package span

// The budget unpacker, the event counter and the staged-frame probe, which
// only tests use.

// UnpackBudgets reverses PackBudgets.
func UnpackBudgets(p uint64, n int32) []int {
	if n < 0 {
		n = 0
	}
	if n > 8 {
		n = 8
	}
	out := make([]int, n)
	for i := int32(0); i < n; i++ {
		out[i] = int((p >> (8 * uint(i))) & 0xff)
	}
	return out
}

// Events returns how many events have ever been written (including those
// already overwritten by the ring).
func (r *Recorder) Events() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.head
}

// Open reports whether a frame is currently staged.
func (b *FrameBuilder) Open() bool { return b != nil && b.open }
