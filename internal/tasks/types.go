package tasks

import (
	"fmt"
	"math"

	"triplec/internal/frame"
)

// Name identifies a task in the flow graph, the memory model and the
// Triple-C predictor. The names follow the paper's Fig. 2 labels.
type Name string

// Task names as used across the flow graph, Table 1 and Table 2.
const (
	NameRDGFull Name = "RDG_FULL"
	NameRDGROI  Name = "RDG_ROI"
	NameMKXExt  Name = "MKX_EXT"
	NameCPLSSel Name = "CPLS_SEL"
	NameREG     Name = "REG"
	NameROIEst  Name = "ROI_EST"
	NameGWExt   Name = "GW_EXT"
	NameENH     Name = "ENH"
	NameZOOM    Name = "ZOOM"
	NameDetect  Name = "RDG_DETECT" // the cheap pre-scan behind the first switch
)

// AllNames lists the modeled tasks in pipeline order.
func AllNames() []Name {
	names := make([]Name, NumNames)
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// NumNames is the number of modeled tasks (len(AllNames())).
const NumNames = 10

// IndexOf returns the task's position in AllNames (its row of the task
// table), or -1 for an unknown name. The switch (instead of a map) keeps the lookup allocation- and
// hash-free so per-frame telemetry can index dense instrument arrays with
// it on the hot path.
func IndexOf(n Name) int {
	switch n {
	case NameDetect:
		return 0
	case NameRDGFull:
		return 1
	case NameRDGROI:
		return 2
	case NameMKXExt:
		return 3
	case NameCPLSSel:
		return 4
	case NameREG:
		return 5
	case NameROIEst:
		return 6
	case NameGWExt:
		return 7
	case NameENH:
		return 8
	case NameZOOM:
		return 9
	}
	return -1
}

// Marker is a candidate balloon marker: a punctual dark zone contrasting on
// a brighter background.
type Marker struct {
	X, Y  float64 // centroid in frame coordinates
	Score float64 // darkness x compactness score; larger is more marker-like
}

// Dist returns the Euclidean distance between two markers.
func (m Marker) Dist(n Marker) float64 {
	return math.Hypot(m.X-n.X, m.Y-n.Y)
}

// String renders the marker position and score.
func (m Marker) String() string {
	return fmt.Sprintf("marker(%.1f,%.1f score=%.2f)", m.X, m.Y, m.Score)
}

// Couple is a selected pair of balloon markers.
type Couple struct {
	A, B    Marker
	Spacing float64 // |A-B|
}

// Mid returns the couple's midpoint.
func (c Couple) Mid() (x, y float64) {
	return (c.A.X + c.B.X) / 2, (c.A.Y + c.B.Y) / 2
}

// Registration is the temporal alignment between the couple in the previous
// frame and the current frame.
type Registration struct {
	DX, DY float64 // translation that maps the previous couple onto the current
	Error  float64 // residual alignment error in pixels
	OK     bool    // true when the motion criterion accepts the match
}

// RidgeResult is the output of the ridge-detection task.
type RidgeResult struct {
	Mask        *frame.Frame // thresholded binary ridge mask
	RidgePixels int          // number of mask pixels set — the data-dependent load
}
