package slo

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the replay golden files")

// TestReplayGolden pins the SLO drill's report document — `triplec slo
// -streams 2 -frames 240` with the CLI defaults and its indented JSON
// rendering, clean and with -spike — against files recorded at ade9e74,
// before the replay moved onto the shared fleet driver. spike.json is byte
// for byte what the CI slo-smoke drill writes with -out.
// Regenerate deliberately with: go test ./internal/slo -run ReplayGolden -update-golden
func TestReplayGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  ReplayConfig
	}{
		{"clean.json", ReplayConfig{Streams: 2, Frames: 240, Seed: 11, Train: 2}},
		{"spike.json", ReplayConfig{Streams: 2, Frames: 240, Seed: 11, Train: 2,
			Spike: true, SpikeFrom: 60, SpikeTo: 120, SpikeProb: 0.8, SpikeMs: 25}},
	} {
		res, _, err := Replay(tc.cfg)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		var doc bytes.Buffer
		enc := json.NewEncoder(&doc)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join("testdata", tc.name)
		if *updateGolden {
			if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(doc.Bytes(), want) {
			t.Errorf("%s differs from the golden recorded at ade9e74:\n--- got:\n%s--- want:\n%s", tc.name, doc.Bytes(), want)
		}
	}
}
