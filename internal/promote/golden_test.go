package promote

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"triplec/internal/fault"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the replay golden files")

// checkGolden compares got against testdata/<name>, rewriting the file
// instead under -update-golden.
func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden recorded at ade9e74:\n--- got:\n%s--- want:\n%s", name, got, want)
	}
}

// TestReplayGolden pins the promotion drill's transition log and result
// document — `triplec promote -streams 2 -frames 200` with the CLI defaults
// and its indented JSON rendering — against files recorded at ade9e74,
// before the replay moved onto the shared fleet driver. miscal.log is byte
// for byte what the CI promote-smoke drill writes with -out.
// Regenerate deliberately with: go test ./internal/promote -run ReplayGolden -update-golden
func TestReplayGolden(t *testing.T) {
	cli := Config{CanaryFrac: 0.25, MaxMissRate: 0.25} // what cmd/triplec passes by default
	adaptive := cli
	adaptive.AdaptiveGuards = true
	auto := cli
	auto.Challenger = "auto"
	for _, tc := range []struct {
		name string
		cfg  ReplayConfig
	}{
		{"miscal", ReplayConfig{Streams: 2, Frames: 200, Seed: 11, Train: 2, Miscalibrate: true, Promote: cli}},
		{"auto_spikes", ReplayConfig{Streams: 2, Frames: 200, Seed: 11, Train: 2, Promote: auto,
			Fault: &fault.Config{Seed: 11, Defaults: fault.Probs{Spike: 0.2}, SpikeMs: 25}}},
		{"miscal_adaptive", ReplayConfig{Streams: 2, Frames: 200, Seed: 11, Train: 2, Miscalibrate: true, Promote: adaptive}},
	} {
		var log, doc bytes.Buffer
		res, _, err := Replay(tc.cfg, &log)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if len(res.Transitions) == 0 {
			t.Errorf("%s: no transitions; the golden would not cover the state machine", tc.name)
		}
		enc := json.NewEncoder(&doc)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		checkGolden(t, tc.name+".log", log.Bytes())
		checkGolden(t, tc.name+".json", doc.Bytes())
	}
}
