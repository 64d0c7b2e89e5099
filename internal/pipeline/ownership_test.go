package pipeline

import (
	"cmp"
	"slices"
	"testing"
	"unsafe"

	"triplec/internal/frame"
	"triplec/internal/tasks"
)

// TestReportsOwnTheirRecords: every report of a run owns its task records
// and its couple, through Process and through the pipelined executor. The
// records are carved from chunks shared by many frames, so this pins the
// carving: no two reports' Execs overlap, no two share a couple, and a
// caller overwriting one report's records changes no other report.
func TestReportsOwnTheirRecords(t *testing.T) {
	const n = 200
	s := testSeq(t, 5)
	frames := make([]*frame.Frame, n)
	for i := range frames {
		frames[i], _ = s.Frame(i)
	}
	source := func(i int) *frame.Frame { return frames[i] }
	for _, run := range []struct {
		name string
		fn   func(*Engine) ([]Report, error)
	}{
		{"Process", func(e *Engine) ([]Report, error) { return e.RunSequence(n, source, nil) }},
		{"pipelined", func(e *Engine) ([]Report, error) { return e.RunSequencePipelined(n, source, nil) }},
	} {
		t.Run(run.name, func(t *testing.T) {
			reps, err := run.fn(newEngine(t))
			if err != nil {
				t.Fatal(err)
			}
			checkDisjoint(t, reps)
			checkOverwrite(t, reps)
		})
	}
}

// checkDisjoint fails if two reports' Execs backing arrays overlap or two
// reports point at one couple.
func checkDisjoint(t *testing.T, reps []Report) {
	t.Helper()
	type span struct{ lo, hi uintptr }
	var spans []span
	couples := map[*tasks.Couple]int{}
	for i, r := range reps {
		if len(r.Execs) == 0 {
			t.Fatalf("report %d has no task records", i)
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(r.Execs)))
		spans = append(spans, span{lo, lo + uintptr(cap(r.Execs))*unsafe.Sizeof(TaskExec{})})
		if r.Couple != nil {
			if j, dup := couples[r.Couple]; dup {
				t.Fatalf("reports %d and %d share a couple", j, i)
			}
			couples[r.Couple] = i
		}
	}
	if len(couples) < len(reps)/2 {
		t.Fatalf("only %d of %d frames selected a couple", len(couples), len(reps))
	}
	slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
	for i := 1; i < len(spans); i++ {
		if spans[i].lo < spans[i-1].hi {
			t.Fatalf("two reports' Execs overlap: [%#x, %#x) and [%#x, %#x)", spans[i-1].lo, spans[i-1].hi, spans[i].lo, spans[i].hi)
		}
	}
}

// checkOverwrite overwrites every report's task records and couple in turn
// and checks after each that the reports not yet overwritten still hold
// what they held before.
func checkOverwrite(t *testing.T, reps []Report) {
	t.Helper()
	type record struct {
		execs  []TaskExec
		couple tasks.Couple
	}
	want := make([]record, len(reps))
	for i, r := range reps {
		want[i].execs = slices.Clone(r.Execs)
		if r.Couple != nil {
			want[i].couple = *r.Couple
		}
	}
	for i, r := range reps {
		for k := range r.Execs {
			r.Execs[k] = TaskExec{Task: "overwritten", Ms: -1}
		}
		if r.Couple != nil {
			*r.Couple = tasks.Couple{Spacing: -1}
		}
		for j := i + 1; j < len(reps); j++ {
			if !slices.Equal(reps[j].Execs, want[j].execs) || (reps[j].Couple != nil && *reps[j].Couple != want[j].couple) {
				t.Fatalf("overwriting report %d changed report %d", i, j)
			}
		}
	}
}
