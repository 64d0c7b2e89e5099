package partition

import (
	"strings"
	"testing"

	"triplec/internal/tasks"
)

func TestKindOf(t *testing.T) {
	if KindOf(tasks.NameRDGFull) != tasks.DataParallel {
		t.Fatal("RDG FULL must be data parallel")
	}
	if KindOf(tasks.NameCPLSSel) != tasks.FunctionParallel {
		t.Fatal("CPLS SEL must be function parallel")
	}
	if KindOf(tasks.NameREG) != tasks.NotPartitionable {
		t.Fatal("REG must be unpartitionable")
	}
	if KindOf(tasks.NameDetect) != tasks.NotPartitionable {
		t.Fatal("detector must be unpartitionable")
	}
}

func TestMaxStripes(t *testing.T) {
	if MaxStripes(tasks.NameRDGFull, 8) != 8 {
		t.Fatal("data-parallel max must equal core count")
	}
	if MaxStripes(tasks.NameGWExt, 8) != 2 {
		t.Fatal("function-parallel max must be 2")
	}
	if MaxStripes(tasks.NameGWExt, 1) != 1 {
		t.Fatal("single-core machine caps everything at 1")
	}
	if MaxStripes(tasks.NameREG, 8) != 1 {
		t.Fatal("unpartitionable max must be 1")
	}
}

func TestSerialMapping(t *testing.T) {
	m := Serial()
	for _, task := range tasks.AllNames() {
		if m.StripesFor(task) != 1 {
			t.Fatalf("serial mapping gives %s %d stripes", task, m.StripesFor(task))
		}
	}
	if m.String() != "serial" {
		t.Fatalf("String = %q", m.String())
	}
}

func TestStripesForClamp(t *testing.T) {
	for _, k := range []int{0, -3, 256} {
		if got := Serial().With(tasks.NameENH, k).StripesFor(tasks.NameENH); got != 1 {
			t.Fatalf("With(ENH, %d) gives %d stripes, want the clamp to 1", k, got)
		}
	}
	if Serial().StripesFor("NOPE") != 1 {
		t.Fatal("a task outside the flow graph must run on one core")
	}
}

// TestMappingIsAValue: one stripe is the zero entry, so == is mapping
// equality and a serial With is Serial.
func TestMappingIsAValue(t *testing.T) {
	if Serial().With(tasks.NameENH, 1) != Serial() {
		t.Fatal("a one-stripe entry differs from the serial mapping")
	}
	a := Serial().With(tasks.NameRDGFull, 4).With(tasks.NameENH, 2)
	b := Serial().With(tasks.NameENH, 2).With(tasks.NameRDGFull, 4)
	if a != b || a == Serial() {
		t.Fatalf("%v and %v compare wrong", a, b)
	}
}

func TestWithDoesNotMutate(t *testing.T) {
	m := Serial()
	n := m.With(tasks.NameRDGFull, 4)
	if m.StripesFor(tasks.NameRDGFull) != 1 {
		t.Fatal("With mutated the receiver")
	}
	if n.StripesFor(tasks.NameRDGFull) != 4 {
		t.Fatal("With lost the entry")
	}
}

func TestValidate(t *testing.T) {
	ok := Serial().With(tasks.NameRDGFull, 8).With(tasks.NameCPLSSel, 2)
	if err := ok.Validate(8); err != nil {
		t.Fatal(err)
	}
	if err := Serial().With(tasks.NameRDGFull, 9).Validate(8); err == nil {
		t.Fatal("overscribed data-parallel task accepted")
	}
	if err := Serial().With(tasks.NameCPLSSel, 3).Validate(8); err == nil {
		t.Fatal("3-way functional split accepted")
	}
	if err := Serial().With(tasks.NameREG, 2).Validate(8); err == nil {
		t.Fatal("striped REG accepted")
	}
	if err := Serial().With(tasks.NameENH, 0).Validate(8); err == nil {
		t.Fatal("zero stripes accepted")
	}
	if err := Serial().With(tasks.NameENH, 256).Validate(8); err == nil {
		t.Fatal("a stripe count past 255 accepted")
	}
	if err := Serial().Validate(0); err == nil {
		t.Fatal("zero CPUs accepted")
	}
}

func TestWorstMapping(t *testing.T) {
	m := Worst(8)
	if err := m.Validate(8); err != nil {
		t.Fatal(err)
	}
	if m.StripesFor(tasks.NameRDGFull) != 8 {
		t.Fatal("worst-case mapping must stripe RDG over all cores")
	}
	if m.StripesFor(tasks.NameCPLSSel) != 2 {
		t.Fatal("worst-case mapping must split CPLS two ways")
	}
	if m.StripesFor(tasks.NameREG) != 1 {
		t.Fatal("worst-case mapping must keep REG serial")
	}
}

func TestTwoStripeRDG(t *testing.T) {
	m := TwoStripeRDG()
	if m.StripesFor(tasks.NameRDGFull) != 2 || m.StripesFor(tasks.NameRDGROI) != 2 {
		t.Fatal("two-stripe mapping wrong")
	}
	if err := m.Validate(8); err != nil {
		t.Fatal(err)
	}
}

func TestStringLists(t *testing.T) {
	m := Serial().With(tasks.NameZOOM, 2).With(tasks.NameRDGFull, 4).With(tasks.NameCPLSSel, 2)
	if s := m.String(); s != "CPLS_SEL/2 RDG_FULL/4 ZOOM/2" {
		t.Fatalf("String = %q, want the entries in name order", s)
	}
	// String sorts "NAME/k" parts, which sorts the names only while no name
	// is a prefix of another.
	for _, a := range tasks.AllNames() {
		for _, b := range tasks.AllNames() {
			if a != b && strings.HasPrefix(string(b), string(a)) {
				t.Fatalf("task name %s is a prefix of %s", a, b)
			}
		}
	}
	if Serial().With(tasks.NameENH, 1).String() != "serial" {
		t.Fatal("all-ones mapping must print serial")
	}
}
