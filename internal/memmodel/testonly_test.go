package memmodel

import (
	"fmt"

	"triplec/internal/tasks"
)

// Frame sizing and the cache-overflow list, which only tests use.

// FrameKB returns the size of one full frame buffer in KB for the given
// geometry (2 bytes per pixel).
func FrameKB(width, height int) int {
	return width * height * 2 / 1024
}

// IntraTaskOverflowKB lists, for each task whose intra-task footprint
// exceeds the given cache capacity, the amount by which it overflows. The
// paper (Section 5) singles out RDG FULL, ENH and ZOOM against the 4 MB L2.
func IntraTaskOverflowKB(frameKB, cacheKB int) (map[tasks.Name]int, error) {
	if cacheKB <= 0 {
		return nil, fmt.Errorf("memmodel: cacheKB must be positive")
	}
	out := map[tasks.Name]int{}
	for _, task := range []tasks.Name{
		tasks.NameRDGFull, tasks.NameRDGROI, tasks.NameMKXExt,
		tasks.NameENH, tasks.NameZOOM,
	} {
		req, err := Lookup(task, true, frameKB)
		if err != nil {
			return nil, err
		}
		if tot := req.TotalKB(); tot > cacheKB {
			out[task] = tot - cacheKB
		}
	}
	return out, nil
}
