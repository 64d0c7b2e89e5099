package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"triplec/internal/slo"
)

// TestSLOReplayGolden pins the SLO drill's report document — `triplec slo
// -streams 2 -frames 240` with the CLI defaults and its indented JSON
// rendering, clean and with -spike — against files recorded at ade9e74,
// before the replay moved onto the shared fleet driver. spike.json is byte
// for byte what the CI slo-smoke drill writes with -out.
// Regenerate deliberately with: go test ./internal/experiments -run ReplayGolden -update-golden
func TestSLOReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  SLOReplayConfig
	}{
		{"clean.json", SLOReplayConfig{Streams: 2, Frames: 240, Seed: 11, Train: 2}},
		{"spike.json", SLOReplayConfig{Streams: 2, Frames: 240, Seed: 11, Train: 2,
			Spike: true, SpikeFrom: 60, SpikeTo: 120, SpikeProb: 0.8, SpikeMs: 25}},
	} {
		res, _, err := ReplaySLO(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var doc bytes.Buffer
		enc := json.NewEncoder(&doc)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, "slo/"+tc.name, doc.Bytes())
	}
}

// TestReplaySpikeDrill: the fault-spike replay must fire the deadline
// fast-burn page inside the spike window, clear it afterwards, keep the
// decomposition exact, and be byte-deterministic.
func TestReplaySpikeDrill(t *testing.T) {
	cfg := SLOReplayConfig{Streams: 2, Frames: 200, Spike: true}
	resA, trk, err := ReplaySLO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSLOReplay(resA, true); err != nil {
		t.Fatal(err)
	}
	if resA.FirstPageFrame < 0 {
		t.Fatal("no deadline page fired")
	}
	if !resA.PageCleared {
		t.Fatal("deadline page did not clear")
	}
	if trk.Status(false).SLOs[slo.SLODeadline].State == slo.AlertPage.String() {
		t.Fatal("tracker still paging after the run")
	}
	// The fault cause must own latency during the spike window.
	var faultMs float64
	for _, c := range resA.Status.Fleet.Causes {
		if c.Cause == "fault" {
			faultMs = c.Ms
		}
	}
	if faultMs <= 0 {
		t.Fatal("spike drill attributed no latency to the fault cause")
	}

	resB, _, err := ReplaySLO(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(resA)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(resB)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("replay reports differ between identical runs")
	}
}

// TestReplayClean: a spike-free replay stays ok and still reconciles.
func TestReplayClean(t *testing.T) {
	res, _, err := ReplaySLO(SLOReplayConfig{Streams: 2, Frames: 120})
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckSLOReplay(res, false); err != nil {
		t.Fatal(err)
	}
	if res.FirstPageFrame >= 0 {
		t.Fatalf("clean replay paged at frame %d", res.FirstPageFrame)
	}
}
