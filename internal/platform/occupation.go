package platform

import "errors"

// The analytical space-time buffer-occupation model (paper Section 5,
// Fig. 5). A task is decomposed into subtasks; each subtask scans a set of
// named buffers linearly in the (x, y) direction. Whether a pass over a
// buffer hits in the cache is decided by comparing the subtask's working set
// against the cache capacity: with LRU and cyclic linear scans, a working
// set larger than the cache re-misses on every pass (the classic LRU
// worst case for sequential sweeps), while a working set that fits stays
// resident after the first pass.

// Access describes one linear pass over a buffer within a subtask.
type Access struct {
	Buffer string // buffer name (for reporting)
	SizeKB int    // buffer size in KB
	Write  bool   // write pass (write-allocate + eventual writeback) vs read pass
	// Resident indicates the buffer was produced by the previous subtask and
	// may still be cached when this subtask starts.
	Resident bool
}

// Subtask is a phase of a task with a fixed set of buffer passes.
type Subtask struct {
	Name     string
	Accesses []Access
}

// BufferTraffic is the predicted external-memory traffic attributed to one
// buffer pass of one subtask.
type BufferTraffic struct {
	Subtask  string
	Buffer   string
	SizeKB   int
	ReadKB   int  // fill traffic from external memory
	WriteKB  int  // writeback traffic to external memory
	Evicted  bool // true when the working set overflowed the cache
	Resident bool // pass was served from cache contents left by the producer
}

// OccupationModel predicts the intra-task external-memory traffic of a task
// given the cache capacity.
type OccupationModel struct {
	CacheKB int
}

// working set of a subtask: the total unique footprint it touches.
func workingSetKB(st Subtask) int {
	seen := map[string]int{}
	for _, a := range st.Accesses {
		if cur, ok := seen[a.Buffer]; !ok || a.SizeKB > cur {
			seen[a.Buffer] = a.SizeKB
		}
	}
	total := 0
	for _, sz := range seen {
		total += sz
	}
	return total
}

// Predict returns per-pass traffic for every subtask plus the grand total in
// KB per task execution. Multiply by the frame rate for MB/s.
func (m OccupationModel) Predict(subtasks []Subtask) ([]BufferTraffic, int, error) {
	if m.CacheKB <= 0 {
		return nil, 0, errors.New("cache: occupation model needs positive capacity")
	}
	var out []BufferTraffic
	total := 0
	for _, st := range subtasks {
		ws := workingSetKB(st)
		overflow := ws > m.CacheKB
		seen := map[string]bool{} // buffers already scanned within this subtask
		for _, a := range st.Accesses {
			bt := BufferTraffic{
				Subtask: st.Name, Buffer: a.Buffer, SizeKB: a.SizeKB,
				Evicted:  overflow,
				Resident: (a.Resident || seen[a.Buffer]) && !overflow,
			}
			if a.Write {
				// Write-allocate cache: a write miss fetches the line before
				// dirtying it, so a sequential write pass costs a fill plus
				// the eventual writeback — unless the buffer is still
				// resident from an earlier pass. The Blackford-era Intel L2
				// the paper profiles on behaves this way.
				bt.WriteKB = a.SizeKB
				if !bt.Resident {
					bt.ReadKB = a.SizeKB
				}
			} else {
				// Read pass: free only if the buffer is still resident (from
				// the producing subtask or an earlier pass here).
				if !bt.Resident {
					bt.ReadKB = a.SizeKB
				}
			}
			seen[a.Buffer] = true
			total += bt.ReadKB + bt.WriteKB
			out = append(out, bt)
		}
	}
	return out, total, nil
}

// PredictTotalKB is a convenience wrapper returning only the total traffic.
func (m OccupationModel) PredictTotalKB(subtasks []Subtask) (int, error) {
	_, total, err := m.Predict(subtasks)
	return total, err
}
