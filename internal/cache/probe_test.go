package cache

// Single-address reads, counter resets and occupancy and hit-rate probes
// only tests use.

// HitRate returns Hits / (Hits + Misses), or 0 before any access.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// ResetStats clears counters but keeps cache contents.
func (c *Cache) ResetStats() { c.stats = Stats{} }

// Read touches one byte-address for reading.
func (c *Cache) Read(addr uint64) { c.access(addr, false) }

// Occupancy returns the number of valid lines currently resident.
func (c *Cache) Occupancy() int {
	n := 0
	for si := range c.sets {
		for wi := range c.sets[si] {
			if c.sets[si][wi].valid {
				n++
			}
		}
	}
	return n
}
