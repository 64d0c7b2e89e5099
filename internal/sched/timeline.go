package sched

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// Timeline lays one frame's task executions out on the machine's cores —
// the Gantt view of a mapping. Tasks in this flow graph are serially
// dependent, so successive tasks occupy successive time slots; the stripes
// of one task run concurrently on distinct cores. The per-core utilization
// quantifies the headroom left for "more functions on the same platform".
type Timeline struct {
	Intervals  []Interval
	MakespanMs float64
	NumCores   int
}

// Interval is one stripe's occupancy of one core.
type Interval struct {
	Task    tasks.Name
	Core    int
	StartMs float64
	EndMs   float64
}

// BuildTimeline converts an executed frame report into a core timeline on a
// machine with numCores cores, placing each task's stripes on cores
// baseCore..baseCore+k-1 (baseCore supports multi-application layouts where
// an app owns a core range).
func BuildTimeline(rep pipeline.Report, numCores, baseCore int) (Timeline, error) {
	if numCores <= 0 {
		return Timeline{}, errors.New("sched: timeline needs at least one core")
	}
	if baseCore < 0 || baseCore >= numCores {
		return Timeline{}, fmt.Errorf("sched: base core %d out of range", baseCore)
	}
	tl := Timeline{NumCores: numCores}
	now := 0.0
	for _, e := range rep.Execs {
		k := e.Stripes
		if k < 1 {
			k = 1
		}
		if baseCore+k > numCores {
			return Timeline{}, fmt.Errorf("sched: task %s needs %d cores from %d, machine has %d",
				e.Task, k, baseCore, numCores)
		}
		for s := 0; s < k; s++ {
			tl.Intervals = append(tl.Intervals, Interval{
				Task: e.Task, Core: baseCore + s,
				StartMs: now, EndMs: now + e.Ms,
			})
		}
		now += e.Ms
	}
	tl.MakespanMs = now
	return tl, nil
}

// Validate checks that no core hosts overlapping intervals.
func (t Timeline) Validate() error {
	perCore := map[int][]Interval{}
	for _, iv := range t.Intervals {
		if iv.Core < 0 || iv.Core >= t.NumCores {
			return fmt.Errorf("sched: interval on core %d outside machine", iv.Core)
		}
		if iv.EndMs < iv.StartMs {
			return fmt.Errorf("sched: inverted interval for %s", iv.Task)
		}
		perCore[iv.Core] = append(perCore[iv.Core], iv)
	}
	for core, ivs := range perCore {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].StartMs < ivs[j].StartMs })
		for i := 1; i < len(ivs); i++ {
			if ivs[i].StartMs < ivs[i-1].EndMs-1e-9 {
				return fmt.Errorf("sched: core %d overlap between %s and %s",
					core, ivs[i-1].Task, ivs[i].Task)
			}
		}
	}
	return nil
}

// Utilization returns the machine-wide utilization: total busy core-ms over
// numCores * makespan. Low utilization is the headroom the paper wants to
// hand to additional functions.
func (t Timeline) Utilization() float64 {
	if t.MakespanMs <= 0 || t.NumCores == 0 {
		return 0
	}
	busy := 0.0
	for _, iv := range t.Intervals {
		busy += iv.EndMs - iv.StartMs
	}
	return busy / (t.MakespanMs * float64(t.NumCores))
}

// Render draws an ASCII Gantt chart, one row per core, `width` characters
// across the makespan.
func (t Timeline) Render(width int) string {
	if width < 10 {
		width = 10
	}
	glyphFor := func(task tasks.Name) byte {
		if s, ok := tasks.SpecOf(task); ok {
			return s.Glyph
		}
		return '?'
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline: makespan %.1f ms, utilization %.0f%%\n",
		t.MakespanMs, 100*t.Utilization())
	for core := 0; core < t.NumCores; core++ {
		row := []byte(strings.Repeat(".", width))
		for _, iv := range t.Intervals {
			if iv.Core != core || t.MakespanMs == 0 {
				continue
			}
			s := int(iv.StartMs / t.MakespanMs * float64(width))
			e := int(iv.EndMs / t.MakespanMs * float64(width))
			if e <= s {
				e = s + 1
			}
			if e > width {
				e = width
			}
			for x := s; x < e; x++ {
				row[x] = glyphFor(iv.Task)
			}
		}
		fmt.Fprintf(&b, "core %d |%s|\n", core, row)
	}
	b.WriteString("legend: d=detect R=RDG M=MKX C=CPLS G=REG r=ROI_EST W=GW E=ENH Z=ZOOM\n")
	return b.String()
}
