package pipeline

import "testing"

import "triplec/internal/tasks"

func TestQualitySheds(t *testing.T) {
	cases := []struct {
		q    Quality
		task tasks.Name
		shed bool
	}{
		{QualityFull, tasks.NameRDGFull, false},
		{QualityFull, tasks.NameZOOM, false},
		{QualityRDGROI, tasks.NameRDGFull, true},
		{QualityRDGROI, tasks.NameRDGROI, false},
		{QualityRDGOff, tasks.NameRDGROI, true},
		{QualityRDGOff, tasks.NameZOOM, false},
		{QualityNoZoom, tasks.NameZOOM, true},
		{QualitySerial, tasks.NameZOOM, true},
		// The analysis core is never shed, even at the bottom rung.
		{QualitySerial, tasks.NameENH, false},
		{QualitySerial, tasks.NameREG, false},
		{QualitySerial, tasks.NameMKXExt, false},
	}
	for _, c := range cases {
		if got := c.q.Sheds(c.task); got != c.shed {
			t.Errorf("%v.Sheds(%s) = %v, want %v", c.q, c.task, got, c.shed)
		}
	}
	if QualityFull.ForceSerial() || QualityNoZoom.ForceSerial() {
		t.Error("non-bottom rung forces serial")
	}
	if !QualitySerial.ForceSerial() {
		t.Error("bottom rung does not force serial")
	}
}

func TestQualityString(t *testing.T) {
	for q := QualityFull; q <= QualityMax; q++ {
		if s := q.String(); s == "" || s[0] == 'q' {
			t.Errorf("rung %d has placeholder string %q", int(q), s)
		}
	}
	if Quality(99).String() != "quality(99)" {
		t.Error("out-of-range rung not labeled")
	}
}

func TestDegraderStepsDownAndRecovers(t *testing.T) {
	d := NewDegrader()
	// Two bad frames: not enough.
	d.Observe(false)
	d.Observe(false)
	if d.Level() != QualityFull {
		t.Fatalf("stepped down after 2 bad frames: %v", d.Level())
	}
	// Third consecutive bad frame trips a step down.
	if !d.Observe(false) {
		t.Fatal("no transition at stepDownAfter")
	}
	if d.Level() != QualityRDGROI {
		t.Fatalf("level %v, want rdg-roi", d.Level())
	}
	// Recovery: stepUpAfter consecutive good frames step back up.
	for i := 0; i < stepUpAfter-1; i++ {
		if d.Observe(true) {
			t.Fatalf("stepped up early at good frame %d", i+1)
		}
	}
	if !d.Observe(true) {
		t.Fatal("no step up after stepUpAfter good frames")
	}
	if d.Level() != QualityFull {
		t.Fatalf("level %v after recovery, want full", d.Level())
	}
	// Cannot step above full.
	for i := 0; i < 2*stepUpAfter; i++ {
		d.Observe(true)
	}
	if d.Level() != QualityFull {
		t.Fatal("stepped above full")
	}
}

func TestDegraderBottomsOut(t *testing.T) {
	d := NewDegrader()
	transitions := 0
	for i := 0; i < 50; i++ {
		if d.Observe(false) {
			transitions++
		}
	}
	if d.Level() != QualityMax {
		t.Fatalf("level %v under sustained failure, want serial", d.Level())
	}
	if transitions != int(QualityMax) {
		t.Fatalf("transitions %d, want %d", transitions, int(QualityMax))
	}
}

func TestDegraderMinDwellDampsOscillation(t *testing.T) {
	d := NewDegrader()
	for i := 0; i < stepDownAfter; i++ {
		d.Observe(false) // the first transition needs no dwell
	}
	if d.Level() != QualityRDGROI {
		t.Fatalf("level %v, want rdg-roi", d.Level())
	}
	// More bad frames than stepDownAfter, but inside the dwell window: no
	// further transition until minDwell frames have passed.
	for i := 1; i < minDwell; i++ {
		if d.Observe(false) {
			t.Fatalf("transition inside dwell window at frame %d", i)
		}
	}
	if !d.Observe(false) {
		t.Fatal("no transition once the dwell elapsed")
	}
	if d.Level() != QualityRDGOff {
		t.Fatalf("level %v after the second transition, want rdg-off", d.Level())
	}
}

func TestDegraderNilSafe(t *testing.T) {
	var d *Degrader
	if d.Observe(false) || d.Level() != QualityFull {
		t.Fatal("nil degrader misbehaved")
	}
}
