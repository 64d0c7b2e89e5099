package main

import (
	"hash/fnv"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestShadowShortReportDigest pins the JSON report `triplec shadow -short`
// writes, byte for byte. The cross-validated bake-off trains the deployed
// predictor and the order-2 backend on every fold, replays the held-out
// sequences through every backend and scores them, so a refactor of the
// observation records, the corpus grouping or the fold split that moves any
// number moves this digest.
func TestShadowShortReportDigest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "shadow.json")
	if err := runShadow([]string{"-short", "-quiet", "-out", path}, io.Discard); err != nil {
		t.Fatal(err)
	}
	report, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(report)
	const want = uint64(0xa23b19051ff78742)
	if got := h.Sum64(); got != want {
		t.Errorf("shadow -short report digest %#016x, want %#016x:\n%s", got, want, report)
	}
}
