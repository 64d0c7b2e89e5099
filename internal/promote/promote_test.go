package promote

import (
	"testing"

	"triplec/internal/core"
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
