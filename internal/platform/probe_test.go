package platform

// Single-address reads, counter resets and occupancy and miss probes only
// tests use.

// misses returns the demand misses so far: every miss fills one line.
func (c *Cache) misses() int64 { return c.stats.BytesFromMemory / int64(c.cfg.LineBytes) }

// writebacks returns the dirty lines written back so far.
func (c *Cache) writebacks() int64 { return c.stats.BytesToMemory / int64(c.cfg.LineBytes) }

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
