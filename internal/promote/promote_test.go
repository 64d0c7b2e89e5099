package promote

import (
	"math"
	"testing"

	"triplec/internal/core"
	"triplec/internal/shadow"
)

func TestNewControllerRejectsBaselineChallenger(t *testing.T) {
	if _, err := NewController(Config{Challenger: core.BackendBaseline}); err == nil {
		t.Fatal("controller accepted the deployed baseline as its own challenger")
	}
}

func TestParseStateRoundTrip(t *testing.T) {
	for st := StateShadow; st <= StateQuarantined; st++ {
		got, err := ParseState(st.String())
		if err != nil || got != st {
			t.Fatalf("ParseState(%q) = %v, %v", st.String(), got, err)
		}
	}
	if _, err := ParseState("limbo"); err == nil {
		t.Fatal("unknown state parsed")
	}
}

// TestStatRingPercentile pins the adaptive-guard history ring: bounded
// retention, interpolated order statistics, degenerate sizes.
func TestStatRingPercentile(t *testing.T) {
	var r statRing
	if got := r.percentile(0.5); got != 0 {
		t.Fatalf("empty ring percentile = %v, want 0", got)
	}
	r.push(0.3)
	if got := r.percentile(0.95); got != 0.3 {
		t.Fatalf("single-entry p95 = %v, want 0.3", got)
	}
	// Push past capacity: only the last 8 values (0.1 .. 0.8) survive.
	for _, v := range []float64{0.9, 0.95, 0.5, 0.1, 0.7, 0.3, 0.8, 0.2, 0.6, 0.4} {
		r.push(v)
	}
	if r.n != adaptiveWindows {
		t.Fatalf("ring kept %d entries, want %d", r.n, adaptiveWindows)
	}
	if got := r.percentile(0); got != 0.1 {
		t.Fatalf("p0 = %v, want 0.1", got)
	}
	if got := r.percentile(1); got != 0.8 {
		t.Fatalf("p100 = %v, want 0.8", got)
	}
	if got, want := r.percentile(0.5), 0.45; got < want-1e-12 || got > want+1e-12 {
		t.Fatalf("p50 = %v, want %v", got, want)
	}
}

// TestWithDefaultsReplacesInvalidFractions: a negative and a NaN CanaryFrac
// or MaxMissRate each take the default, not only a zero one.
func TestWithDefaultsReplacesInvalidFractions(t *testing.T) {
	for _, v := range []float64{0, -0.5, math.NaN()} {
		got := Config{CanaryFrac: v, MaxMissRate: v}.withDefaults()
		if got.CanaryFrac != 0.25 || got.MaxMissRate != 0.25 {
			t.Errorf("withDefaults(%v) = CanaryFrac %v, MaxMissRate %v; want 0.25, 0.25", v, got.CanaryFrac, got.MaxMissRate)
		}
	}
}

// rosterController is a controller over a two-slot roster (baseline and one
// challenger) with no streams attached: enough for the state machine's own
// bookkeeping.
func rosterController(t *testing.T) *Controller {
	t.Helper()
	c, err := NewController(Config{})
	if err != nil {
		t.Fatal(err)
	}
	c.names = []string{"baseline", "challenger"}
	c.streak = make([]int, 2)
	c.strikes = make([]int, 2)
	c.quarantined = make([]bool, 2)
	c.cooldown = make([]uint64, 2)
	return c
}

// TestQuarantineAtThirdStrike: the first two rollbacks of a backend leave
// it rolled back; the third, exactly maxStrikes, quarantines it.
func TestQuarantineAtThirdStrike(t *testing.T) {
	c := rosterController(t)
	for strike := 1; strike <= maxStrikes; strike++ {
		c.challenger = 1
		c.rollbackLocked("guardrail breach")
		want := StateRolledBack
		if strike == maxStrikes {
			want = StateQuarantined
		}
		if c.state != want || c.quarantined[1] != (want == StateQuarantined) {
			t.Fatalf("strike %d: state %v, quarantined %v; want %v", strike, c.state, c.quarantined[1], want)
		}
	}
}

// TestStreakResetsOnQuarantinedOrSkipped: a winning score counts toward the
// challenger's streak only while the backend is live and scored; a
// quarantined or skipped one resets it.
func TestStreakResetsOnQuarantinedOrSkipped(t *testing.T) {
	winning := shadow.BackendFrameScore{RollN: minSamples, RollRegretMs: -1}
	for _, tc := range []struct {
		name                 string
		quarantined, skipped bool
		want                 int
	}{
		{"live", false, false, 3},
		{"quarantined", true, false, 0},
		{"skipped", false, true, 0},
	} {
		c := rosterController(t)
		c.quarantined[1] = tc.quarantined
		c.streak[1] = 2
		fs := shadow.FrameScore{N: 2}
		fs.Scores[1] = winning
		fs.Scores[1].Skipped = tc.skipped
		c.observeScores(0, &fs)
		if c.streak[1] != tc.want {
			t.Errorf("%s: streak %d, want %d", tc.name, c.streak[1], tc.want)
		}
	}
}
