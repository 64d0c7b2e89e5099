package platform

import (
	"strings"
	"testing"
	"testing/quick"
)

func mustCache(t *testing.T, cfg CacheLevel) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		cfg CacheLevel
		ok  bool
	}{
		{CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 4}, true},
		{CacheLevel{SizeBytes: 0, LineBytes: 64}, false},
		{CacheLevel{SizeBytes: 1024, LineBytes: 0}, false},
		{CacheLevel{SizeBytes: 1024, LineBytes: 48}, false},           // not power of two
		{CacheLevel{SizeBytes: 1000, LineBytes: 64}, false},           // not multiple
		{CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 5}, false}, // 16 lines % 5 != 0
		{CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 0}, true},  // fully assoc
	}
	for i, tc := range cases {
		err := tc.cfg.Validate()
		if (err == nil) != tc.ok {
			t.Fatalf("case %d: Validate() = %v, ok=%v", i, err, tc.ok)
		}
	}
}

func TestColdMissThenHit(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 4})
	c.Read(0)
	c.Read(0)
	if s := c.Stats(); s.BytesFromMemory != 64 {
		t.Fatalf("fill traffic = %d, want 64: one miss, then a hit", s.BytesFromMemory)
	}
}

func TestSameLineDifferentBytes(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 4})
	c.Read(0)
	c.Read(63) // same line
	if m := c.misses(); m != 1 {
		t.Fatalf("same-line access missed: %d misses", m)
	}
}

func TestLRUEviction(t *testing.T) {
	// Direct-mapped-by-construction: 2 lines, fully associative, so the
	// third distinct line evicts the least recently used.
	c := mustCache(t, CacheLevel{SizeBytes: 128, LineBytes: 64, Assoc: 0})
	c.Read(0)   // line A
	c.Read(64)  // line B
	c.Read(0)   // touch A again -> B is LRU
	c.Read(128) // line C evicts B
	c.Read(0)   // A still resident -> hit
	// A, B and C miss; the re-reads of A hit.
	if m := c.misses(); m != 3 {
		t.Fatalf("misses = %d, want 3", m)
	}
	c.Read(64) // B was evicted -> miss again
	if m := c.misses(); m != 4 {
		t.Fatalf("misses = %d after re-reading the evicted line, want 4", m)
	}
}

func TestWritebackOnDirtyEviction(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 64, LineBytes: 64, Assoc: 1})
	c.Write(0) // dirty line
	c.Read(64) // evicts dirty line -> writeback
	if s := c.Stats(); s.BytesToMemory != 64 {
		t.Fatalf("writeback stats: %+v", s)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 64, LineBytes: 64, Assoc: 1})
	c.Read(0)
	c.Read(64)
	if w := c.writebacks(); w != 0 {
		t.Fatalf("clean eviction wrote back %d lines", w)
	}
}

func TestFlushWritesDirty(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 256, LineBytes: 64, Assoc: 0})
	c.Write(0)
	c.Write(64)
	c.Read(128)
	c.Flush()
	if w := c.writebacks(); w != 2 {
		t.Fatalf("flush writebacks = %d, want 2", w)
	}
	if c.Occupancy() != 0 {
		t.Fatal("flush must invalidate all lines")
	}
	// After flush, previously-resident lines miss again.
	c.Read(0)
	if m := c.misses(); m != 4 {
		t.Fatalf("post-flush misses = %d, want 4", m)
	}
}

func TestReadRangeTouchesEveryLine(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 4096, LineBytes: 64, Assoc: 4})
	c.ReadRange(0, 1024) // 16 lines
	if m := c.misses(); m != 16 {
		t.Fatalf("misses = %d, want 16", m)
	}
}

func TestReadRangeUnalignedStart(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 4096, LineBytes: 64, Assoc: 4})
	c.ReadRange(32, 64) // spans two lines
	if m := c.misses(); m != 2 {
		t.Fatalf("misses = %d, want 2", m)
	}
}

func TestWriteRangeDirty(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 4096, LineBytes: 64, Assoc: 4})
	c.WriteRange(0, 256)
	c.Flush()
	if w := c.writebacks(); w != 4 {
		t.Fatalf("writebacks = %d, want 4", w)
	}
}

func TestCyclicScanOverflowsLRU(t *testing.T) {
	// The fundamental behaviour the occupation model relies on: a cyclic
	// linear scan over a buffer larger than the cache misses on every pass.
	c := mustCache(t, CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 0})
	const buf = 2048 // 2x capacity
	c.ReadRange(0, buf)
	first := c.misses()
	c.ReadRange(0, buf)
	second := c.misses() - first
	if second != first {
		t.Fatalf("second pass misses = %d, want %d (full re-miss)", second, first)
	}
}

func TestCyclicScanFitsStaysResident(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 4096, LineBytes: 64, Assoc: 0})
	const buf = 2048 // fits
	c.ReadRange(0, buf)
	before := c.misses()
	c.ReadRange(0, buf)
	if got := c.misses() - before; got != 0 {
		t.Fatalf("resident re-scan missed %d times", got)
	}
}

func TestHitRate(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 4})
	if c.misses() != 0 {
		t.Fatal("misses before any access")
	}
	const reads = 4
	for i := 0; i < reads; i++ {
		c.Read(0)
	}
	if hr := 1 - float64(c.misses())/reads; hr != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", hr)
	}
}

func TestOccupancy(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 256, LineBytes: 64, Assoc: 0})
	if c.Occupancy() != 0 {
		t.Fatal("fresh cache must be empty")
	}
	c.Read(0)
	c.Read(64)
	if c.Occupancy() != 2 {
		t.Fatalf("occupancy = %d, want 2", c.Occupancy())
	}
}

func TestResetStatsKeepsContents(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 256, LineBytes: 64, Assoc: 0})
	c.Read(0)
	c.ResetStats()
	c.Read(0)
	if m := c.misses(); m != 0 {
		t.Fatalf("contents lost by ResetStats: %d misses", m)
	}
}

func TestStringDescribesGeometry(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 4 << 20, LineBytes: 64, Assoc: 16})
	if !strings.Contains(c.String(), "4096KB") {
		t.Fatalf("String() = %q", c.String())
	}
}

func TestTotalTraffic(t *testing.T) {
	s := Stats{BytesFromMemory: 100, BytesToMemory: 50}
	if s.TotalTrafficBytes() != 150 {
		t.Fatal("TotalTrafficBytes wrong")
	}
}

// Property: every distinct line misses at least once, no access misses
// twice, and only a line filled before can be written back.
func TestPropertyAccessAccounting(t *testing.T) {
	f := func(addrs []uint16, writes []bool) bool {
		c, err := New(CacheLevel{SizeBytes: 512, LineBytes: 64, Assoc: 2})
		if err != nil {
			return false
		}
		lines := map[uint16]bool{}
		for i, a := range addrs {
			lines[a/64] = true
			w := i < len(writes) && writes[i]
			if w {
				c.Write(uint64(a))
			} else {
				c.Read(uint64(a))
			}
		}
		m := c.misses()
		return int64(len(lines)) <= m && m <= int64(len(addrs)) && c.writebacks() <= m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: occupancy never exceeds capacity in lines.
func TestPropertyOccupancyBounded(t *testing.T) {
	f := func(addrs []uint32) bool {
		c, err := New(CacheLevel{SizeBytes: 1024, LineBytes: 64, Assoc: 4})
		if err != nil {
			return false
		}
		for _, a := range addrs {
			c.Read(uint64(a))
		}
		return c.Occupancy() <= 16
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPrefetchOffUnchanged: the cache fetches only on demand, so a
// sequential sweep misses once per line.
func TestPrefetchOffUnchanged(t *testing.T) {
	c := mustCache(t, CacheLevel{SizeBytes: 64 << 10, LineBytes: 64, Assoc: 8})
	c.ReadRange(0, 32<<10)
	if m := c.misses(); m != 512 {
		t.Fatalf("misses = %d, want 512", m)
	}
}
