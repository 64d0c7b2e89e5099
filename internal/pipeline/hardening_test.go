package pipeline

import (
	"math"
	"strings"
	"testing"

	"triplec/internal/frame"
	"triplec/internal/partition"
)

// Regression: NaN config values used to slip past the exactly-zero default
// checks.
func TestNewRejectsNegativeAndNaNConfig(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"NaN MarkerSpacing", func(c *Config) { c.MarkerSpacing = math.NaN() }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig()
			tc.mutate(&cfg)
			if _, err := New(cfg); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

// Regression: charge used to discard the flowgraph.IntraTaskKB error, so a
// bad L2 size under-charged memory traffic with no signal. An L2 smaller
// than 1 KB passes the structural arch validation but truncates to zero
// capacity in the occupation model, which must now surface per report.
func TestChargeSurfacesAccountingErrors(t *testing.T) {
	cfg := testConfig()
	cfg.Arch.L2.SizeBytes = 512
	cfg.Arch.L2.LineBytes = 64
	cfg.Arch.L2.Assoc = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	seq := testSeq(t, 5)
	f, _ := seq.Frame(0)
	rep, err := e.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AccountingErrs) == 0 {
		t.Fatal("zero-capacity L2 produced no accounting errors")
	}
	for _, msg := range rep.AccountingErrs {
		if !strings.Contains(msg, "bandwidth accounting") {
			t.Fatalf("accounting error %q missing context", msg)
		}
	}
	// The healthy configuration stays clean.
	clean := newEngine(t)
	rep, err = clean.Process(f, partition.Serial())
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.AccountingErrs) != 0 {
		t.Fatalf("healthy engine reported accounting errors: %v", rep.AccountingErrs)
	}
}

// Regression: a nil source func used to panic inside RunSequence, and a
// source returning nil mid-sequence surfaced only as a generic "empty
// frame" without the failing index.
func TestRunSequenceNilSource(t *testing.T) {
	e := newEngine(t)
	if _, err := e.RunSequence(3, nil, partition.Serial()); err == nil {
		t.Fatal("nil source accepted")
	}
}

func TestRunSequenceNilFrameNamesIndex(t *testing.T) {
	e := newEngine(t)
	seq := testSeq(t, 6)
	src := func(i int) *frame.Frame {
		if i == 2 {
			return nil
		}
		f, _ := seq.Frame(i)
		return f
	}
	_, err := e.RunSequence(5, src, partition.Serial())
	if err == nil {
		t.Fatal("nil frame mid-sequence accepted")
	}
	if !strings.Contains(err.Error(), "frame 2") {
		t.Fatalf("error %q does not name the failing frame index", err)
	}
}
