// The cache-memory substrate of Triple-C: a set-associative LRU cache
// simulator used to measure intra-task traffic, and (occupation.go) the
// analytical space-time buffer-occupation model the paper uses to *predict*
// that traffic for linearly scanned buffers (Section 5, Fig. 5).

package platform

import (
	"errors"
	"fmt"
)

// CacheLevel describes one cache level.
type CacheLevel struct {
	SizeBytes int // total capacity
	LineBytes int // cache-line size
	Assoc     int // ways per set; 0 or >= lines means fully associative
}

// Validate checks structural constraints: power-of-two line size, capacity a
// multiple of line*assoc.
func (c CacheLevel) Validate() error {
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

// Stats accumulates the external-memory traffic.
type Stats struct {
	BytesFromMemory int64 // fill traffic: misses * line
	BytesToMemory   int64 // writeback traffic: dirty evictions * line
}

// TotalTrafficBytes returns the external-memory traffic in both directions —
// the quantity Fig. 5 calls "extra bandwidth between cache memory and
// external memory storage".
func (s Stats) TotalTrafficBytes() int64 { return s.BytesFromMemory + s.BytesToMemory }

type line struct {
	tag   uint64
	valid bool
	dirty bool
	lru   uint64 // larger = more recently used
}

// Cache is a set-associative write-back, write-allocate cache with true LRU
// replacement. It models a single level (the paper's analysis concerns the
// L2, whose 4 MB capacity the big tasks overflow).
type Cache struct {
	cfg      CacheLevel
	sets     [][]line
	setCount int
	assoc    int
	clock    uint64
	stats    Stats
}

// New builds a cache from cfg.
func New(cfg CacheLevel) (*Cache, error) {
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
	lineAddr := addr / uint64(c.cfg.LineBytes)
	c.clock++

	if l := c.lookup(lineAddr); l != nil {
		l.lru = c.clock
		if write {
			l.dirty = true
		}
		return
	}
	// Miss: fill, evicting the LRU victim if needed.
	c.stats.BytesFromMemory += int64(c.cfg.LineBytes)
	c.fill(lineAddr, write)
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
func (c *Cache) fill(lineAddr uint64, write bool) {
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
	if v.valid && v.dirty {
		c.stats.BytesToMemory += int64(c.cfg.LineBytes)
	}
	*v = line{tag: tag, valid: true, dirty: write, lru: c.clock}
}

// String describes the cache geometry.
func (c *Cache) String() string {
	return fmt.Sprintf("cache{%dKB, %dB lines, %d-way, %d sets}",
		c.cfg.SizeBytes/1024, c.cfg.LineBytes, c.assoc, c.setCount)
}
