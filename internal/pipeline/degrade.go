package pipeline

import (
	"fmt"

	"triplec/internal/tasks"
)

// The degradation ladder makes the paper's data-dependent scenario switches
// available as *explicit* quality modes: under sustained overload or
// repeated failure the serving layer steps the pipeline down the ladder —
// shedding the most expensive optional work first, exactly the work the
// flow graph's own switches already prove the application survives without
// — and steps back up only after a cool-down, because switching quality
// modes has a transition cost of its own (cf. Jung et al.,
// arXiv:1603.05775: mode switches must be damped, not instantaneous).

// Quality is one rung of the degradation ladder, mildest first.
type Quality int

const (
	// QualityFull runs the whole flow graph.
	QualityFull Quality = iota
	// QualityRDGROI sheds full-frame ridge detection: RDG runs only at ROI
	// granularity (frames without a known ROI skip ridge detection), the
	// single most expensive task in the paper's Table 2.
	QualityRDGROI
	// QualityRDGOff sheds ridge detection entirely; marker extraction runs
	// on the raw frame.
	QualityRDGOff
	// QualityNoZoom additionally sheds the output zoom (the enhanced frame
	// is still computed for the temporal stack, but no zoomed output is
	// produced).
	QualityNoZoom
	// QualitySerial is the bottom rung: in addition to the NoZoom shedding
	// the serving layer forces the serial mapping, shrinking the stream's
	// core footprint to one.
	QualitySerial
)

// QualityMax is the bottom of the ladder.
const QualityMax = QualitySerial

func (q Quality) String() string {
	switch q {
	case QualityFull:
		return "full"
	case QualityRDGROI:
		return "rdg-roi"
	case QualityRDGOff:
		return "rdg-off"
	case QualityNoZoom:
		return "no-zoom"
	case QualitySerial:
		return "serial"
	}
	return fmt.Sprintf("quality(%d)", int(q))
}

// Sheds reports whether the quality level suppresses the given task.
func (q Quality) Sheds(name tasks.Name) bool {
	switch name {
	case tasks.NameRDGFull:
		return q >= QualityRDGROI
	case tasks.NameRDGROI:
		return q >= QualityRDGOff
	case tasks.NameZOOM:
		return q >= QualityNoZoom
	}
	return false
}

// ForceSerial reports whether the level demands the serial mapping.
func (q Quality) ForceSerial() bool { return q >= QualitySerial }

// The ladder's transition hysteresis, in frames.
const (
	// stepDownAfter is the consecutive bad frames (deadline miss, task
	// failure, abandonment) that trigger a step down.
	stepDownAfter = 3
	// stepUpAfter is the consecutive good frames required to step back up
	// one rung — the cool-down, much larger than stepDownAfter so the
	// ladder reacts fast and recovers cautiously.
	stepUpAfter = 24
	// minDwell is the minimum number of frames between two transitions, in
	// either direction, damping oscillation when the load sits exactly at a
	// rung boundary.
	minDwell = 8
)

// Degrader is the per-stream ladder state machine. It is driven from the
// stream's serving goroutine (one Observe per offered frame) and is not
// safe for concurrent use. All methods are nil-safe so the serving loop
// carries no degradation-enabled branches.
type Degrader struct {
	level       Quality
	bad, good   int // consecutive outcome counters
	sinceSwitch int // frames since the last transition
}

// NewDegrader builds a ladder controller at QualityFull.
func NewDegrader() *Degrader {
	return &Degrader{sinceSwitch: minDwell} // the first transition needs no dwell
}

// Level returns the current rung (QualityFull on a nil degrader).
func (d *Degrader) Level() Quality {
	if d == nil {
		return QualityFull
	}
	return d.level
}

// Observe feeds one frame outcome (ok = processed within budget, no
// failure) and returns true when the ladder changed rung.
func (d *Degrader) Observe(ok bool) bool {
	if d == nil {
		return false
	}
	d.sinceSwitch++
	if ok {
		d.good++
		d.bad = 0
	} else {
		d.bad++
		d.good = 0
	}
	if d.sinceSwitch < minDwell {
		return false
	}
	if d.bad >= stepDownAfter && d.level < QualityMax {
		d.level++
		d.step()
		return true
	}
	if d.good >= stepUpAfter && d.level > QualityFull {
		d.level--
		d.step()
		return true
	}
	return false
}

func (d *Degrader) step() {
	d.bad, d.good = 0, 0
	d.sinceSwitch = 0
}
