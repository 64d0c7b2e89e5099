package platform

import "testing"

// rdgFullSubtasks models the paper's Fig. 5 decomposition of RDG FULL:
// buffers A (input, 2048 KB), B (intermediate, 7168 KB) and C (output,
// 5120 KB) against the 4 MB (4096 KB) L2.
func rdgFullSubtasks() []Subtask {
	return []Subtask{
		{Name: "smooth", Accesses: []Access{
			{Buffer: "A", SizeKB: 2048},
			{Buffer: "B", SizeKB: 7168, Write: true},
		}},
		{Name: "hessian+filter", Accesses: []Access{
			{Buffer: "B", SizeKB: 7168, Resident: true},
			{Buffer: "C", SizeKB: 5120, Write: true},
		}},
	}
}

func TestOccupationNeedsCapacity(t *testing.T) {
	m := OccupationModel{}
	if _, _, err := m.Predict(nil); err == nil {
		t.Fatal("expected error for zero capacity")
	}
}

func TestOccupationSmallTaskFits(t *testing.T) {
	m := OccupationModel{CacheKB: 4096}
	sub := []Subtask{{Name: "s", Accesses: []Access{
		{Buffer: "in", SizeKB: 512},
		{Buffer: "out", SizeKB: 512, Write: true},
	}}}
	passes, total, err := m.Predict(sub)
	if err != nil {
		t.Fatal(err)
	}
	// Compulsory input read + output write-allocate fill + writeback.
	if total != 512+512+512 {
		t.Fatalf("total = %d KB, want 1536", total)
	}
	for _, p := range passes {
		if p.Evicted {
			t.Fatalf("fitting working set marked evicted: %+v", p)
		}
	}
}

func TestOccupationRDGFullOverflows(t *testing.T) {
	m := OccupationModel{CacheKB: 4096}
	passes, total, err := m.Predict(rdgFullSubtasks())
	if err != nil {
		t.Fatal(err)
	}
	// Both subtasks have working sets (2048+7168, 7168+5120) > 4096, so
	// every pass generates traffic:
	//   smooth: read A 2048, write B 7168 (+ write-allocate fill 7168)
	//   hessian: read B 7168 (residency voided), write C 5120 (+ fill 5120)
	want := 2048 + 7168 + 7168 + 7168 + 5120 + 5120
	if total != want {
		t.Fatalf("total = %d KB, want %d", total, want)
	}
	evicted := 0
	for _, p := range passes {
		if p.Evicted {
			evicted++
		}
		if p.Resident {
			t.Fatalf("overflowing pass marked resident: %+v", p)
		}
	}
	if evicted != len(passes) {
		t.Fatalf("all passes must be marked evicted, got %d/%d", evicted, len(passes))
	}
}

func TestOccupationResidencySavesReads(t *testing.T) {
	// Same shape as RDG but with small buffers: the intermediate stays
	// resident so the consumer's read pass is free.
	m := OccupationModel{CacheKB: 4096}
	sub := []Subtask{
		{Name: "p1", Accesses: []Access{
			{Buffer: "A", SizeKB: 256},
			{Buffer: "B", SizeKB: 512, Write: true},
		}},
		{Name: "p2", Accesses: []Access{
			{Buffer: "B", SizeKB: 512, Resident: true},
			{Buffer: "C", SizeKB: 256, Write: true},
		}},
	}
	_, total, err := m.Predict(sub)
	if err != nil {
		t.Fatal(err)
	}
	// A read (256) + B fill+writeback (1024) + B read free + C fill+writeback (512).
	if total != 256+1024+512 {
		t.Fatalf("total = %d KB, want 1792", total)
	}
}

func TestOccupationAgainstSimulator(t *testing.T) {
	// Validate the analytical model against the LRU simulator for both the
	// fitting and the overflowing regime, using a fully-associative cache so
	// conflict misses don't blur the comparison.
	for _, tc := range []struct {
		name    string
		cacheKB int
		bufKB   int
	}{
		{"fits", 1024, 256},
		{"overflows", 256, 1024},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sim, err := New(CacheLevel{SizeBytes: tc.cacheKB * 1024, LineBytes: 64, Assoc: 0})
			if err != nil {
				t.Fatal(err)
			}
			// Subtask 1: read A, write B. Subtask 2: read B, write C.
			const kb = 1024
			aBase, bBase, cBase := uint64(0), uint64(64<<20), uint64(128<<20)
			n := tc.bufKB * kb
			sim.ReadRange(aBase, n)
			sim.WriteRange(bBase, n)
			sim.ReadRange(bBase, n)
			sim.WriteRange(cBase, n)
			sim.Flush()
			simTraffic := int(sim.Stats().TotalTrafficBytes() / kb)

			m := OccupationModel{CacheKB: tc.cacheKB}
			sub := []Subtask{
				{Name: "p1", Accesses: []Access{
					{Buffer: "A", SizeKB: tc.bufKB},
					{Buffer: "B", SizeKB: tc.bufKB, Write: true},
				}},
				{Name: "p2", Accesses: []Access{
					{Buffer: "B", SizeKB: tc.bufKB, Resident: true},
					{Buffer: "C", SizeKB: tc.bufKB, Write: true},
				}},
			}
			_, predicted, err := m.Predict(sub)
			if err != nil {
				t.Fatal(err)
			}
			// The model is a bound-style estimate; require agreement within
			// 35% — the paper itself reports ~90% accuracy at scenario level.
			lo, hi := float64(simTraffic)*0.65, float64(simTraffic)*1.35
			if float64(predicted) < lo || float64(predicted) > hi {
				t.Fatalf("predicted %d KB, simulator %d KB (outside ±35%%)", predicted, simTraffic)
			}
		})
	}
}

func TestWorkingSetDeduplicatesBuffers(t *testing.T) {
	st := Subtask{Name: "s", Accesses: []Access{
		{Buffer: "X", SizeKB: 100},
		{Buffer: "X", SizeKB: 100, Write: true},
		{Buffer: "Y", SizeKB: 50},
	}}
	if ws := workingSetKB(st); ws != 150 {
		t.Fatalf("working set = %d, want 150", ws)
	}
}

func TestPredictTotalKB(t *testing.T) {
	m := OccupationModel{CacheKB: 4096}
	total, err := m.PredictTotalKB(rdgFullSubtasks())
	if err != nil {
		t.Fatal(err)
	}
	if total <= 0 {
		t.Fatal("total must be positive")
	}
}
