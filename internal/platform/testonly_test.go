package platform

// Add returns the sum of two costs.
func (c Cost) Add(d Cost) Cost {
	return Cost{Cycles: c.Cycles + d.Cycles, MemBytes: c.MemBytes + d.MemBytes}
}
