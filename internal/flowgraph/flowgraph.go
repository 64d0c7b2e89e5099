// Package flowgraph models the paper's Fig. 2: the task graph of the
// motion-compensated feature-enhancement application, its three
// data-dependent switches and the resulting eight application scenarios,
// together with the inter-task communication bandwidth annotated on the
// graph's edges (derived from the Table 1 buffer sizes at the frame rate).
// It holds the application's whole resource demand: Table 1 itself
// (memmodel.go), the inter- and intra-task bandwidth analysis of Fig. 2 and
// Fig. 5 (bandwidth.go), and the pipeline stage split (stages.go). The
// machine the demand runs on is internal/platform.
package flowgraph

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"triplec/internal/tasks"
)

// Pseudo-node names for the graph's source and sink.
const (
	NodeInput  tasks.Name = "INPUT"
	NodeOutput tasks.Name = "OUTPUT"
)

// Scenario is one combination of the three switch decisions. The paper:
// "In total, there are eight different scenarios possible given the three
// switch statements in the flow graph."
type Scenario struct {
	RDGOn      bool // SW1: dominant structures present, ridge detection required
	ROIKnown   bool // SW2: an ROI was estimated, tasks run at ROI granularity
	RegSuccess bool // SW3: temporal registration succeeded, enhancement proceeds
}

// AllScenarios enumerates the eight scenarios in a stable order.
func AllScenarios() []Scenario {
	var out []Scenario
	for _, rdg := range []bool{false, true} {
		for _, roi := range []bool{false, true} {
			for _, reg := range []bool{false, true} {
				out = append(out, Scenario{RDGOn: rdg, ROIKnown: roi, RegSuccess: reg})
			}
		}
	}
	return out
}

// WorstCase is the scenario with the highest bandwidth demand: full-frame
// granularity, ridge detection active, registration successful (paper §5.2).
func WorstCase() Scenario { return Scenario{RDGOn: true, ROIKnown: false, RegSuccess: true} }

// String renders the scenario's three switch settings.
func (s Scenario) String() string {
	onOff := func(b bool, yes, no string) string {
		if b {
			return yes
		}
		return no
	}
	return fmt.Sprintf("rdg=%s gran=%s reg=%s",
		onOff(s.RDGOn, "on", "off"),
		onOff(s.ROIKnown, "roi", "full"),
		onOff(s.RegSuccess, "ok", "fail"))
}

// ActiveTasks returns the tasks executed under the scenario, in pipeline
// order.
func (s Scenario) ActiveTasks() []tasks.Name {
	out := []tasks.Name{tasks.NameDetect}
	if s.RDGOn {
		if s.ROIKnown {
			out = append(out, tasks.NameRDGROI)
		} else {
			out = append(out, tasks.NameRDGFull)
		}
	}
	out = append(out, tasks.NameMKXExt, tasks.NameCPLSSel, tasks.NameREG)
	if s.RegSuccess {
		out = append(out, tasks.NameROIEst, tasks.NameGWExt, tasks.NameENH, tasks.NameZOOM)
	}
	return out
}

// RDGTask returns which ridge-detection variant the scenario uses, or ""
// when RDG is off.
func (s Scenario) RDGTask() tasks.Name {
	if !s.RDGOn {
		return ""
	}
	if s.ROIKnown {
		return tasks.NameRDGROI
	}
	return tasks.NameRDGFull
}

// Edge is one inter-task connection with its data volume per frame.
type Edge struct {
	From, To tasks.Name
	KB       int // data transported per frame
}

// MBs returns the edge bandwidth in MB/s at the given frame rate, the
// quantity Fig. 2 annotates (KB * rate / 1024).
func (e Edge) MBs(rate float64) float64 { return float64(e.KB) * rate / 1024 }

// Edges returns the active edges of the scenario for the given frame size.
// At the paper's geometry (frameKB = 2048) and 30 Hz the values reproduce
// the Fig. 2 labels: 60, 150, 75, 15, 30 and 120 MB/s.
func (s Scenario) Edges(frameKB int) ([]Edge, error) {
	if frameKB <= 0 {
		return nil, fmt.Errorf("flowgraph: frameKB must be positive")
	}
	mkx, err := Lookup(tasks.NameMKXExt, s.RDGOn, frameKB)
	if err != nil {
		return nil, err
	}
	var edges []Edge
	if s.RDGOn {
		rdgName := s.RDGTask()
		rdg, err := Lookup(rdgName, true, frameKB)
		if err != nil {
			return nil, err
		}
		edges = append(edges,
			Edge{NodeInput, rdgName, rdg.InputKB},
			Edge{rdgName, tasks.NameMKXExt, rdg.OutputKB},
		)
	} else {
		// RDG bypassed: MKX consumes its (downsampled) input directly.
		edges = append(edges, Edge{NodeInput, tasks.NameMKXExt, mkx.InputKB})
	}
	feature := featureKB(frameKB)
	edges = append(edges,
		Edge{tasks.NameMKXExt, tasks.NameCPLSSel, mkx.OutputKB},
		Edge{tasks.NameCPLSSel, tasks.NameREG, feature},
	)
	if s.RegSuccess {
		enh, err := Lookup(tasks.NameENH, false, frameKB)
		if err != nil {
			return nil, err
		}
		zoom, err := Lookup(tasks.NameZOOM, false, frameKB)
		if err != nil {
			return nil, err
		}
		edges = append(edges,
			Edge{tasks.NameREG, tasks.NameROIEst, feature},
			Edge{tasks.NameROIEst, tasks.NameGWExt, feature},
			Edge{NodeInput, tasks.NameENH, enh.InputKB},
			Edge{tasks.NameENH, tasks.NameZOOM, enh.OutputKB},
			Edge{tasks.NameZOOM, NodeOutput, zoom.OutputKB},
		)
	}
	return edges, nil
}

// ratedEdges is Edges for bandwidths at rate Hz, the path TotalMBs, Render
// and DOT share.
func (s Scenario) ratedEdges(frameKB int, rate float64) ([]Edge, error) {
	if err := checkRate(rate); err != nil {
		return nil, err
	}
	return s.Edges(frameKB)
}

// checkRate rejects a frame rate no bandwidth exists at: zero, negative,
// NaN or infinite.
func checkRate(rate float64) error {
	if !(rate > 0) || math.IsInf(rate, 1) {
		return fmt.Errorf("flowgraph: rate must be positive and finite, got %v", rate)
	}
	return nil
}

// featureKB is the size of the feature-data packets (candidate lists, couple
// descriptors) flowing between the analysis tasks: 512 KB at the paper's
// geometry (the 15 MB/s labels of Fig. 2), scaling with the frame size.
func featureKB(frameKB int) int { return frameKB / 4 }

// TotalMBs returns the summed inter-task bandwidth of the scenario at the
// given frame size and rate.
func (s Scenario) TotalMBs(frameKB int, rate float64) (float64, error) {
	edges, err := s.ratedEdges(frameKB, rate)
	if err != nil {
		return 0, err
	}
	total := 0.0
	for _, e := range edges {
		total += e.MBs(rate)
	}
	return total, nil
}

// Render draws the scenario's graph as text with Fig. 2-style bandwidth
// labels.
func (s Scenario) Render(frameKB int, rate float64) (string, error) {
	edges, err := s.ratedEdges(frameKB, rate)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scenario %s (frame %d KB @ %.0f Hz)\n", s, frameKB, rate)
	for _, e := range edges {
		fmt.Fprintf(&b, "  %-9s -> %-9s %6.1f MB/s (%d KB/frame)\n",
			e.From, e.To, e.MBs(rate), e.KB)
	}
	return b.String(), nil
}

// ScenarioIndex returns a stable 0..7 index for the scenario (used by the
// predictor to key per-scenario statistics).
func (s Scenario) Index() int {
	i := 0
	if s.RDGOn {
		i |= 4
	}
	if s.ROIKnown {
		i |= 2
	}
	if s.RegSuccess {
		i |= 1
	}
	return i
}

// FromIndex is the inverse of Index.
func FromIndex(i int) Scenario {
	return Scenario{RDGOn: i&4 != 0, ROIKnown: i&2 != 0, RegSuccess: i&1 != 0}
}

// SortedByBandwidth returns the scenarios ordered by descending total
// bandwidth at the given geometry — the worst case first.
func SortedByBandwidth(frameKB int, rate float64) ([]Scenario, error) {
	scs := AllScenarios()
	totals := make(map[Scenario]float64, len(scs))
	for _, s := range scs {
		t, err := s.TotalMBs(frameKB, rate)
		if err != nil {
			return nil, err
		}
		totals[s] = t
	}
	sort.SliceStable(scs, func(i, j int) bool { return totals[scs[i]] > totals[scs[j]] })
	return scs, nil
}
