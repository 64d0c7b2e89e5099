package fault

import (
	"testing"

	"triplec/internal/tasks"
)

// trip records breakerMinSamples failures, the fewest that open a circuit.
func trip(t *testing.T, b *Breaker, task tasks.Name) {
	t.Helper()
	for i := 0; i < breakerMinSamples; i++ {
		if got := b.State(task); got != BreakerClosed {
			t.Fatalf("tripped early after %d failures: %v", i, got)
		}
		b.Record(task, false)
	}
	if got := b.State(task); got != BreakerOpen {
		t.Fatalf("state %v after %d failures, want open", got, breakerMinSamples)
	}
}

// coolDown serves the open circuit's refusals and asserts the half-open
// probe is admitted right after them.
func coolDown(t *testing.T, b *Breaker, task tasks.Name) {
	t.Helper()
	for i := 1; i < breakerOpenFrames; i++ {
		if b.Allow(task) {
			t.Fatalf("open circuit admitted execution at cool-down call %d", i)
		}
	}
	if !b.Allow(task) {
		t.Fatal("cool-down elapsed but no half-open probe admitted")
	}
	if got := b.State(task); got != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", got)
	}
}

func TestBreakerTripsOnFailureRate(t *testing.T) {
	b := NewBreaker()
	task := tasks.NameRDGFull
	// One success and three failures: 3/4 >= breakerTripRate trips at the
	// fourth record, the first with breakerMinSamples outcomes.
	b.Record(task, true)
	for i := 0; i < 3; i++ {
		if got := b.State(task); got != BreakerClosed {
			t.Fatalf("tripped early at %d: %v", i, got)
		}
		b.Record(task, false)
	}
	if got := b.State(task); got != BreakerOpen {
		t.Fatalf("state %v after 3/4 failures, want open", got)
	}
	if b.Trips() != 1 {
		t.Fatalf("trips %d, want 1", b.Trips())
	}
	coolDown(t, b, task)
	// Only one probe in flight.
	if b.Allow(task) {
		t.Fatal("second concurrent probe admitted")
	}
	// Successful probe closes the circuit.
	b.Record(task, true)
	if got := b.State(task); got != BreakerClosed {
		t.Fatalf("state %v after good probe, want closed", got)
	}
	if !b.Allow(task) {
		t.Fatal("closed circuit refused execution")
	}
}

// TestBreakerBelowTripRateStaysClosed: a failure rate under breakerTripRate
// never opens the circuit, however long it runs.
func TestBreakerBelowTripRateStaysClosed(t *testing.T) {
	b := NewBreaker()
	task := tasks.NameCPLSSel
	for i := 0; i < 4*breakerWindow; i++ {
		b.Record(task, i%3 == 0 || i%3 == 1) // one failure in three
		if got := b.State(task); got != BreakerClosed {
			t.Fatalf("tripped at %d with a 1/3 failure rate: %v", i, got)
		}
	}
}

func TestBreakerFailedProbeReopens(t *testing.T) {
	b := NewBreaker()
	task := tasks.NameZOOM
	trip(t, b, task)
	coolDown(t, b, task)
	b.Record(task, false) // probe fails
	if b.State(task) != BreakerOpen {
		t.Fatal("failed probe did not reopen")
	}
	if b.Trips() != 2 {
		t.Fatalf("trips %d, want 2", b.Trips())
	}
}

func TestBreakerIsolatesTasks(t *testing.T) {
	b := NewBreaker()
	trip(t, b, tasks.NameGWExt)
	if !b.Allow(tasks.NameZOOM) || b.State(tasks.NameZOOM) != BreakerClosed {
		t.Fatal("healthy task affected by another task's circuit")
	}
	open := b.OpenTasks()
	if len(open) != 1 || open[0] != tasks.NameGWExt {
		t.Fatalf("open tasks %v, want [GW_EXT]", open)
	}
}

func TestBreakerRecoversAfterIntermittentFault(t *testing.T) {
	// A fault that clears: circuit opens, probe succeeds, stays closed under
	// sustained success.
	b := NewBreaker()
	task := tasks.NameRDGROI
	trip(t, b, task)
	coolDown(t, b, task)
	b.Record(task, true)
	for i := 0; i < 50; i++ {
		if !b.Allow(task) {
			t.Fatalf("closed circuit refused at %d", i)
		}
		b.Record(task, true)
	}
	if b.Trips() != 1 {
		t.Fatalf("spurious re-trips: %d", b.Trips())
	}
}
