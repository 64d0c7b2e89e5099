// Package cache provides the cache-memory substrate of Triple-C: a
// set-associative LRU cache simulator used to measure intra-task traffic,
// and the analytical space-time buffer-occupation model the paper uses to
// *predict* that traffic for linearly scanned buffers (Section 5, Fig. 5).
package cache

import (
	"errors"
	"fmt"
)

// Config describes one cache level.
type Config struct {
	SizeBytes int // total capacity
	LineBytes int // cache-line size
	Assoc     int // ways per set; 0 or >= lines means fully associative
	// Prefetch enables a next-line prefetcher: every demand miss also fills
	// the sequentially following line. Sequential sweeps then take their
	// fill traffic early instead of as demand misses — the total external
	// traffic stays the same, but the demand-miss count (and thus the
	// stall-visible latency) roughly halves.
	Prefetch bool
}

// Validate checks structural constraints: power-of-two line size, capacity a
// multiple of line*assoc.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 {
		return errors.New("cache: size and line must be positive")
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return errors.New("cache: line size must be a power of two")
	}
	if c.SizeBytes%c.LineBytes != 0 {
		return errors.New("cache: size must be a multiple of line size")
	}
	lines := c.SizeBytes / c.LineBytes
	assoc := c.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	if lines%assoc != 0 {
		return errors.New("cache: line count must be a multiple of associativity")
	}
	return nil
}

// Stats accumulates access counters.
type Stats struct {
	Reads, Writes     int64 // accesses by type
	Hits, Misses      int64 // line-level outcomes
	Evictions         int64 // lines displaced (clean or dirty)
	Writebacks        int64 // dirty lines written back to memory
	BytesFromMemory   int64 // fill traffic (misses * line, incl. prefetches)
	BytesToMemory     int64 // writeback traffic
	ColdMisses        int64 // first-touch (compulsory) misses
	ConflictOrCapMiss int64 // misses on previously seen lines
	Prefetches        int64 // lines filled speculatively by the prefetcher
	PrefetchHits      int64 // demand accesses served by a prefetched line
}

// TotalTrafficBytes returns the external-memory traffic in both directions —
// the quantity Fig. 5 calls "extra bandwidth between cache memory and
// external memory storage".
func (s Stats) TotalTrafficBytes() int64 { return s.BytesFromMemory + s.BytesToMemory }

type line struct {
	tag        uint64
	valid      bool
	dirty      bool
	prefetched bool   // filled speculatively, not yet demanded
	lru        uint64 // larger = more recently used
}

// Cache is a set-associative write-back, write-allocate cache with true LRU
// replacement. It models a single level (the paper's analysis concerns the
// L2, whose 4 MB capacity the big tasks overflow).
type Cache struct {
	cfg      Config
	sets     [][]line
	setCount int
	assoc    int
	clock    uint64
	stats    Stats
	seen     map[uint64]struct{} // for cold-miss classification
}

// New builds a cache from cfg.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	lines := cfg.SizeBytes / cfg.LineBytes
	assoc := cfg.Assoc
	if assoc <= 0 || assoc > lines {
		assoc = lines
	}
	setCount := lines / assoc
	sets := make([][]line, setCount)
	backing := make([]line, lines)
	for i := range sets {
		sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	return &Cache{
		cfg:      cfg,
		sets:     sets,
		setCount: setCount,
		assoc:    assoc,
		seen:     make(map[uint64]struct{}),
	}, nil
}

// Stats returns a copy of the counters.
func (c *Cache) Stats() Stats { return c.stats }

// Flush writes back all dirty lines and invalidates the cache.
func (c *Cache) Flush() {
	for si := range c.sets {
		for wi := range c.sets[si] {
			l := &c.sets[si][wi]
			if l.valid && l.dirty {
				c.stats.Writebacks++
				c.stats.BytesToMemory += int64(c.cfg.LineBytes)
			}
			l.valid = false
			l.dirty = false
		}
	}
}

// Write touches one byte-address for writing (write-allocate).
func (c *Cache) Write(addr uint64) { c.access(addr, true) }

// ReadRange performs a sequential read scan of [addr, addr+n).
func (c *Cache) ReadRange(addr uint64, n int) {
	lb := uint64(c.cfg.LineBytes)
	for a := addr &^ (lb - 1); a < addr+uint64(n); a += lb {
		c.access(a, false)
	}
}

// WriteRange performs a sequential write scan of [addr, addr+n).
func (c *Cache) WriteRange(addr uint64, n int) {
	lb := uint64(c.cfg.LineBytes)
	for a := addr &^ (lb - 1); a < addr+uint64(n); a += lb {
		c.access(a, true)
	}
}

func (c *Cache) access(addr uint64, write bool) {
	if write {
		c.stats.Writes++
	} else {
		c.stats.Reads++
	}
	lineAddr := addr / uint64(c.cfg.LineBytes)
	c.clock++

	if l := c.lookup(lineAddr); l != nil {
		c.stats.Hits++
		if l.prefetched {
			c.stats.PrefetchHits++
			l.prefetched = false
		}
		l.lru = c.clock
		if write {
			l.dirty = true
		}
		return
	}
	// Miss: classify, fill, evict LRU victim if needed.
	c.stats.Misses++
	c.stats.BytesFromMemory += int64(c.cfg.LineBytes)
	if _, ok := c.seen[lineAddr]; ok {
		c.stats.ConflictOrCapMiss++
	} else {
		c.stats.ColdMisses++
		c.seen[lineAddr] = struct{}{}
	}
	c.fill(lineAddr, write, false)

	// Next-line prefetch on demand misses.
	if c.cfg.Prefetch {
		next := lineAddr + 1
		if c.lookup(next) == nil {
			c.stats.Prefetches++
			c.stats.BytesFromMemory += int64(c.cfg.LineBytes)
			c.fill(next, false, true)
		}
	}
}

// lookup returns the resident line for lineAddr, or nil.
func (c *Cache) lookup(lineAddr uint64) *line {
	set := lineAddr % uint64(c.setCount)
	tag := lineAddr / uint64(c.setCount)
	ways := c.sets[set]
	for wi := range ways {
		l := &ways[wi]
		if l.valid && l.tag == tag {
			return l
		}
	}
	return nil
}

// fill installs lineAddr, evicting the set's LRU victim if necessary.
func (c *Cache) fill(lineAddr uint64, write, prefetched bool) {
	set := lineAddr % uint64(c.setCount)
	tag := lineAddr / uint64(c.setCount)
	ways := c.sets[set]
	victim := -1
	var oldest uint64 = ^uint64(0)
	for wi := range ways {
		l := &ways[wi]
		if !l.valid {
			victim = wi
			break
		}
		if l.lru < oldest {
			oldest = l.lru
			victim = wi
		}
	}
	v := &ways[victim]
	if v.valid {
		c.stats.Evictions++
		if v.dirty {
			c.stats.Writebacks++
			c.stats.BytesToMemory += int64(c.cfg.LineBytes)
		}
	}
	lru := c.clock
	if prefetched && lru > 0 {
		// Prefetched lines enter one tick colder than the demand line so a
		// burst of prefetches cannot displace the demand stream.
		lru--
	}
	*v = line{tag: tag, valid: true, dirty: write, prefetched: prefetched, lru: lru}
}

// String describes the cache geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB, %dB lines, %d-way, %d sets}",
		c.cfg.SizeBytes/1024, c.cfg.LineBytes, c.assoc, c.setCount)
}
