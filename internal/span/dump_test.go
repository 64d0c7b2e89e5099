package span

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

var testMeta = Meta{
	Streams:   []string{"s0", "s1"},
	Tasks:     []string{"T0", "T1", "T2"},
	Scenarios: []string{"sc0", "sc1", "sc2"},
	Qualities: []string{"full", "half"},
	Predictor: "test-predictor",
}

// buildRing commits a known mix of frames and instants and returns the
// recorder, along with the expected frame/task/instant counts.
func buildRing() (rec *Recorder, frames, tasksN, instants int) {
	rec = NewRecorder(512)
	rec.SetMeta(testMeta)
	for s := int32(0); s < 2; s++ {
		b := NewFrameBuilder(rec, s)
		for f := 0; f < 4; f++ {
			b.BeginFrame(f)
			for task := 0; task < 3; task++ {
				b.BeginTask(task)
				b.EndTask(float64(task)+0.5, 1)
				b.SetPredicted(task, float64(task)+0.4)
			}
			if f == 2 {
				b.ScenarioMiss(0, 1)
				instants++
			}
			b.Commit(f, 1, 0, OutcomeProcessed, 2, 3.2, 3.0, 6.0)
			frames++
			tasksN += 3
		}
	}
	p0, n := PackBudgets([]int{4, 4})
	p1, _ := PackBudgets([]int{2, 6})
	rec.Emit(Event{Kind: KindRebalance, Stream: -1, Frame: -1, Cores: n, Pack0: p0, Pack1: p1})
	rec.Emit(Event{Kind: KindFault, Stream: 0, Frame: 3, Task: 1, Arg0: float64(FaultSpike)})
	rec.Emit(Event{Kind: KindBreakerTrip, Stream: 0, Frame: -1, Task: 1})
	rec.Emit(Event{Kind: KindRestart, Stream: 1, Frame: 2, Task: -1})
	instants += 4
	return rec, frames, tasksN, instants
}

// TestDumpRoundTrip writes a ring snapshot and parses it back, asserting
// the reader recovers exactly the structure the writer emitted.
func TestDumpRoundTrip(t *testing.T) {
	rec, wantFrames, wantTasks, wantInstants := buildRing()
	var buf bytes.Buffer
	hdr := dumpHeader{Reason: "deadline_miss", Stream: 1, Frame: 3, Detail: 9.5, Coalesced: 2}
	if err := WriteDump(&buf, rec.Meta(), rec.Snapshot(), hdr); err != nil {
		t.Fatal(err)
	}

	d, err := ReadDump(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if d.Reason != "deadline_miss" || d.Stream != 1 || d.Frame != 3 ||
		d.Detail != 9.5 || d.Coalesced != 2 {
		t.Errorf("header lost: %+v", d)
	}
	// The predictor and the rebalance budgets are written for trace viewers;
	// the reader does not keep them, so check the raw events.
	var raw traceFile
	if err := json.Unmarshal(buf.Bytes(), &raw); err != nil {
		t.Fatal(err)
	}
	if got := argString(raw.OtherData, "predictor"); got != "test-predictor" {
		t.Errorf("predictor metadata lost: %q, want %q", got, "test-predictor")
	}
	if len(d.Frames) != wantFrames {
		t.Errorf("frames = %d, want %d", len(d.Frames), wantFrames)
	}
	gotTasks := 0
	for _, f := range d.Frames {
		gotTasks += len(f.Tasks)
		if f.Scenario != "sc1" || f.Quality != "full" || f.Outcome != "processed" {
			t.Errorf("frame context lost: %+v", f)
		}
		if f.PredictedMs != 3.2 || f.ActualMs != 3.0 || f.BudgetMs != 6.0 {
			t.Errorf("frame timing lost: %+v", f)
		}
		for _, task := range f.Tasks {
			if !strings.HasPrefix(task.Name, "T") {
				t.Errorf("task label not resolved: %q", task.Name)
			}
			if task.PredictedMs <= 0 {
				t.Errorf("task %s lost its prediction: %+v", task.Name, task)
			}
		}
	}
	if gotTasks != wantTasks {
		t.Errorf("tasks = %d, want %d", gotTasks, wantTasks)
	}
	if len(d.Instants) != wantInstants {
		t.Errorf("instants = %d, want %d", len(d.Instants), wantInstants)
	}
	if d.OrphanTasks != 0 {
		t.Errorf("orphan tasks = %d, want 0", d.OrphanTasks)
	}
	if d.Processes[0] != "global" || d.Processes[1] != "s0" || d.Processes[2] != "s1" {
		t.Errorf("process table lost: %v", d.Processes)
	}

	// The rebalance instant must carry the unpacked before/after budgets.
	var rebalance *traceEvent
	for i := range raw.TraceEvents {
		if raw.TraceEvents[i].Name == "rebalance" {
			rebalance = &raw.TraceEvents[i]
		}
	}
	if rebalance == nil {
		t.Fatal("rebalance instant missing")
	}
	before, after := rebalance.Args["before"], rebalance.Args["after"]
	if before == nil || after == nil {
		t.Errorf("rebalance budgets missing: %v", rebalance.Args)
	}
}

func TestReadDumpRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":        `{"traceEvents": [}`,
		"no traceEvents":  `{"displayTimeUnit": "ms"}`,
		"missing ph":      `{"traceEvents": [{"name": "x", "pid": 1, "ts": 0}]}`,
		"unsupported ph":  `{"traceEvents": [{"name": "x", "ph": "B", "pid": 1, "ts": 0}]}`,
		"empty span name": `{"traceEvents": [{"name": "", "ph": "X", "cat": "frame", "pid": 1, "ts": 0}]}`,
		"negative ts":     `{"traceEvents": [{"name": "f", "ph": "X", "cat": "frame", "pid": 1, "ts": -4}]}`,
		"unknown cat":     `{"traceEvents": [{"name": "f", "ph": "X", "cat": "mystery", "pid": 1, "ts": 0}]}`,
		"unnamed instant": `{"traceEvents": [{"name": "", "ph": "i", "pid": 1, "ts": 0}]}`,
	}
	for name, in := range cases {
		if _, err := ReadDump(strings.NewReader(in)); err == nil {
			t.Errorf("%s: ReadDump accepted malformed input", name)
		}
	}
}

func TestReadDumpCountsOrphans(t *testing.T) {
	in := `{"traceEvents": [
		{"name": "frame 0", "ph": "X", "cat": "frame", "pid": 1, "ts": 0, "dur": 5, "args": {"frame": 0}},
		{"name": "T0", "ph": "X", "cat": "task", "pid": 1, "tid": 1, "ts": 1, "dur": 2, "args": {"frame": 0}},
		{"name": "T1", "ph": "X", "cat": "task", "pid": 1, "tid": 1, "ts": 9, "dur": 2, "args": {"frame": 7}},
		{"name": "T2", "ph": "X", "cat": "task", "pid": 2, "tid": 1, "ts": 9, "dur": 2, "args": {"frame": 0}}
	]}`
	d, err := ReadDump(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Frames) != 1 || len(d.Frames[0].Tasks) != 1 {
		t.Errorf("frame association wrong: %+v", d.Frames)
	}
	if d.OrphanTasks != 2 {
		t.Errorf("orphans = %d, want 2 (wrong frame + wrong pid)", d.OrphanTasks)
	}
}

// FuzzReadDump pins the parsing contract: arbitrary input must come back as
// (*Dump, nil) or (nil, error) — never a panic, and never both nil.
func FuzzReadDump(f *testing.F) {
	rec, _, _, _ := buildRing()
	var buf bytes.Buffer
	if err := WriteDump(&buf, rec.Meta(), rec.Snapshot(), dumpHeader{Reason: "manual"}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"traceEvents": []}`))
	f.Add([]byte(`{"traceEvents": [{"name": "f", "ph": "X", "cat": "frame", "pid": 1, "ts": 1e308, "dur": 1e308}]}`))
	f.Add([]byte(`{"otherData": {"reason": 42}, "traceEvents": null}`))
	f.Add([]byte(`[]`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadDump(bytes.NewReader(data))
		if d == nil && err == nil {
			t.Fatal("ReadDump returned neither a dump nor an error")
		}
		if err != nil {
			return
		}
		// A parsed dump must satisfy the reader's ordering invariants.
		for i := 1; i < len(d.Frames); i++ {
			if d.Frames[i].StartUs < d.Frames[i-1].StartUs {
				t.Fatal("frames not sorted by start time")
			}
		}
		for i := 1; i < len(d.Instants); i++ {
			if d.Instants[i].TsUs < d.Instants[i-1].TsUs {
				t.Fatal("instants not sorted by time")
			}
		}
	})
}
