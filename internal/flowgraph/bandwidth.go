// The communication-bandwidth analysis of Triple-C (paper Section 5.2):
// inter-task bandwidth from the flow graph's edges, and intra-task
// bandwidth initiated when a task's internal buffers exceed the platform's
// cache capacity (analyzed with the space-time buffer-occupation model of
// internal/platform, and measurable by replaying the buffer scans through
// the cache simulator).

package flowgraph

import (
	"fmt"
	"strings"

	"triplec/internal/platform"
	"triplec/internal/tasks"
)

// Subtasks returns the linear-scan decomposition of a pixel-array task's
// internal buffer accesses, sized from Table 1 at the given frame size.
// Feature-data tasks return nil (negligible array traffic).
func Subtasks(task tasks.Name, rdgSelected bool, frameKB int) ([]platform.Subtask, error) {
	req, err := Lookup(task, rdgSelected, frameKB)
	if err != nil {
		return nil, err
	}
	if req.TotalKB() == 0 {
		return nil, nil
	}
	switch task {
	case tasks.NameRDGFull, tasks.NameRDGROI:
		// Fig. 5: (1) read input A, (2) produce intermediate B (smoothing +
		// Hessian responses), (3) consume B, (4,5) produce output C.
		return []platform.Subtask{
			{Name: "smooth+hessian", Accesses: []platform.Access{
				{Buffer: "A", SizeKB: req.InputKB},
				{Buffer: "B", SizeKB: req.IntermediateKB, Write: true},
			}},
			{Name: "select+mask", Accesses: []platform.Access{
				{Buffer: "B", SizeKB: req.IntermediateKB, Resident: true},
				{Buffer: "C", SizeKB: req.OutputKB, Write: true},
			}},
		}, nil
	case tasks.NameMKXExt:
		return []platform.Subtask{
			{Name: "threshold", Accesses: []platform.Access{
				{Buffer: "IN", SizeKB: req.InputKB},
				{Buffer: "T", SizeKB: req.IntermediateKB, Write: true},
			}},
			{Name: "label+score", Accesses: []platform.Access{
				{Buffer: "T", SizeKB: req.IntermediateKB, Resident: true},
				{Buffer: "OUT", SizeKB: req.OutputKB, Write: true},
			}},
		}, nil
	case tasks.NameENH:
		return []platform.Subtask{
			{Name: "integrate", Accesses: []platform.Access{
				{Buffer: "IN", SizeKB: req.InputKB},
				{Buffer: "ACC", SizeKB: req.IntermediateKB},
				{Buffer: "ACC", SizeKB: req.IntermediateKB, Write: true},
				{Buffer: "OUT", SizeKB: req.OutputKB, Write: true},
			}},
		}, nil
	case tasks.NameZOOM:
		return []platform.Subtask{
			{Name: "resample", Accesses: []platform.Access{
				{Buffer: "IN", SizeKB: req.InputKB},
				{Buffer: "LUT", SizeKB: req.IntermediateKB},
				{Buffer: "OUT", SizeKB: req.OutputKB, Write: true},
			}},
		}, nil
	}
	return nil, fmt.Errorf("bandwidth: no decomposition for task %q", task)
}

// IntraTaskKB predicts the external-memory traffic of one task execution in
// KB using the space-time buffer-occupation model against cacheKB.
func IntraTaskKB(task tasks.Name, rdgSelected bool, frameKB, cacheKB int) (int, error) {
	subs, err := Subtasks(task, rdgSelected, frameKB)
	if err != nil {
		return 0, err
	}
	if subs == nil {
		return 0, nil
	}
	m := platform.OccupationModel{CacheKB: cacheKB}
	return m.PredictTotalKB(subs)
}

// IntraTaskMBs converts IntraTaskKB to MB/s at the given frame rate.
func IntraTaskMBs(task tasks.Name, rdgSelected bool, frameKB, cacheKB int, rate float64) (float64, error) {
	if err := checkRate(rate); err != nil {
		return 0, err
	}
	kb, err := IntraTaskKB(task, rdgSelected, frameKB, cacheKB)
	if err != nil {
		return 0, err
	}
	return float64(kb) * rate / 1024, nil
}

// MeasureIntraTaskKB replays the task's buffer scans through a real LRU
// cache simulator and returns the observed traffic in KB. This is the
// "measured" side of the paper's 90% analysis-vs-measurement comparison.
func MeasureIntraTaskKB(task tasks.Name, rdgSelected bool, frameKB int, cfg platform.CacheLevel) (int, error) {
	subs, err := Subtasks(task, rdgSelected, frameKB)
	if err != nil {
		return 0, err
	}
	if subs == nil {
		return 0, nil
	}
	sim, err := platform.New(cfg)
	if err != nil {
		return 0, err
	}
	// Assign each distinct buffer a disjoint address region.
	base := map[string]uint64{}
	var next uint64
	for _, st := range subs {
		for _, a := range st.Accesses {
			if _, ok := base[a.Buffer]; !ok {
				base[a.Buffer] = next
				next += uint64(a.SizeKB)*1024 + (64 << 20) // generous spacing
			}
		}
	}
	for _, st := range subs {
		for _, a := range st.Accesses {
			if a.Write {
				sim.WriteRange(base[a.Buffer], a.SizeKB*1024)
			} else {
				sim.ReadRange(base[a.Buffer], a.SizeKB*1024)
			}
		}
	}
	sim.Flush()
	return int(sim.Stats().TotalTrafficBytes() / 1024), nil
}

// Analysis is the bandwidth breakdown of one scenario.
type Analysis struct {
	InterMBs float64 // flow-graph edge traffic
	IntraMBs float64 // cache-overflow traffic of the active pixel tasks
}

// TotalMBs returns inter- plus intra-task bandwidth.
func (a Analysis) TotalMBs() float64 { return a.InterMBs + a.IntraMBs }

// Analyze computes the full bandwidth picture of a scenario on a platform
// with the given L2 capacity.
func Analyze(s Scenario, frameKB, cacheKB int, rate float64) (Analysis, error) {
	inter, err := s.TotalMBs(frameKB, rate)
	if err != nil {
		return Analysis{}, err
	}
	out := Analysis{InterMBs: inter}
	for _, task := range s.ActiveTasks() {
		mbs, err := IntraTaskMBs(task, s.RDGOn, frameKB, cacheKB, rate)
		if err != nil {
			return Analysis{}, err
		}
		out.IntraMBs += mbs
	}
	return out, nil
}

// MaxConcurrentInstances returns how many simultaneous instances of the
// scenario the memory system can sustain — the bandwidth-side answer to the
// paper's "execute more functions on the same platform".
func MaxConcurrentInstances(a Analysis, memBWGBs float64) (int, error) {
	if memBWGBs <= 0 {
		return 0, fmt.Errorf("bandwidth: capacity must be positive")
	}
	if a.TotalMBs() <= 0 {
		return 0, fmt.Errorf("bandwidth: scenario has no demand")
	}
	return int(memBWGBs * 1024 / a.TotalMBs()), nil
}

// Fig5Report renders the per-subtask eviction picture of RDG FULL the way
// the paper's Fig. 5 presents it.
func Fig5Report(frameKB, cacheKB int, rate float64) (string, error) {
	if err := checkRate(rate); err != nil {
		return "", err
	}
	subs, err := Subtasks(tasks.NameRDGFull, true, frameKB)
	if err != nil {
		return "", err
	}
	m := platform.OccupationModel{CacheKB: cacheKB}
	passes, total, err := m.Predict(subs)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "RDG FULL intra-task bandwidth (frame %d KB, L2 %d KB)\n", frameKB, cacheKB)
	for _, p := range passes {
		state := "resident"
		if p.Evicted {
			state = "EVICTED"
		} else if !p.Resident && p.ReadKB+p.WriteKB > 0 {
			state = "compulsory"
		}
		fmt.Fprintf(&b, "  %-16s %-3s %5d KB  read %5d KB  write %5d KB  [%s]\n",
			p.Subtask, p.Buffer, p.SizeKB, p.ReadKB, p.WriteKB, state)
	}
	fmt.Fprintf(&b, "  total %d KB/frame = %.1f MB/s at %.0f Hz\n",
		total, float64(total)*rate/1024, rate)
	return b.String(), nil
}
