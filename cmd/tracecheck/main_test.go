package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// dump renders a flight-recorder file holding a labelled processed frame
// with one predicted task, and a second frame with the given outcome and
// scenario label.
func dump(t *testing.T, outcome, scenario string) string {
	t.Helper()
	body := fmt.Sprintf(`{"traceEvents": [
{"name": "frame", "ph": "X", "cat": "frame", "pid": 1, "ts": 0, "dur": 5, "args": {"frame": 0, "outcome": "processed", "scenario": "s1"}},
{"name": "RDG", "ph": "X", "cat": "task", "pid": 1, "ts": 0, "dur": 2, "args": {"frame": 0, "predicted_ms": 1.5, "scenario": "s1"}},
{"name": "frame", "ph": "X", "cat": "frame", "pid": 1, "ts": 10, "dur": 5, "args": {"frame": 1, "outcome": %q, "scenario": %q}}
], "otherData": {"reason": "task_panic"}}`, outcome, scenario)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckAcceptsUnlabelledFailedFrame(t *testing.T) {
	if err := check(dump(t, "failed", "")); err != nil {
		t.Fatalf("a failed frame has no scenario, yet the dump was rejected: %v", err)
	}
}

func TestCheckRejectsUnlabelledProcessedFrame(t *testing.T) {
	err := check(dump(t, "processed", ""))
	if err == nil || !strings.Contains(err.Error(), "no scenario label") {
		t.Fatalf("check = %v, want a missing-scenario error", err)
	}
}
