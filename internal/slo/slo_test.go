package slo

import (
	"bytes"
	"math"
	"math/rand"
	"net/http/httptest"
	"strings"
	"testing"

	"triplec/internal/metrics"
)

// TestClassifySumInvariant is the exactness property: for any input, the
// per-cause milliseconds sum to the measured latency within 1e-6.
func TestClassifySumInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var b Breakdown
	for i := 0; i < 20000; i++ {
		in := FrameInput{
			LatencyMs:    rng.Float64() * 200,
			PredictedMs:  rng.Float64() * 200,
			BudgetMs:     rng.Float64() * 50,
			ScenarioMiss: rng.Intn(2) == 0,
			CoreWait:     rng.Intn(2) == 0,
			Rebalanced:   rng.Intn(3) == 0,
			Degraded:     rng.Intn(3) == 0,
			FaultRecover: rng.Intn(5) == 0,
			Drain:        rng.Intn(5) == 0,
			FaultMs:      rng.Float64() * 60,
		}
		switch i % 7 { // exercise the degenerate corners too
		case 1:
			in.PredictedMs = 0
		case 2:
			in.FaultMs = 0
		case 3:
			in.PredictedMs = in.LatencyMs
		case 4:
			in.LatencyMs = 0
		case 5:
			in.FaultMs = in.LatencyMs * 2
		}
		Classify(&in, &b)
		sum := 0.0
		for c := 0; c < NumCauses; c++ {
			if b.Ms[c] < 0 {
				t.Fatalf("input %+v: negative charge %s=%g", in, Cause(c), b.Ms[c])
			}
			sum += b.Ms[c]
		}
		if math.Abs(sum-in.LatencyMs) > 1e-6 {
			t.Fatalf("input %+v: causes sum to %g, latency %g", in, sum, in.LatencyMs)
		}
	}
}

// TestClassifyRejectsNonFinite: NaN/Inf/negative latency must charge
// nothing rather than poisoning the ledger.
func TestClassifyRejectsNonFinite(t *testing.T) {
	var b Breakdown
	for _, lat := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -3} {
		Classify(&FrameInput{LatencyMs: lat, PredictedMs: 5}, &b)
		for c := 0; c < NumCauses; c++ {
			if b.Ms[c] != 0 {
				t.Fatalf("latency %v charged %s=%g", lat, Cause(c), b.Ms[c])
			}
		}
	}
}

func TestClassifyAttribution(t *testing.T) {
	var b Breakdown
	// Predicted 10, ran 40, 15 of it injected fault, scenario missed:
	// compute 10, fault 15, scenario-miss the remaining 15.
	in := FrameInput{LatencyMs: 40, PredictedMs: 10, FaultMs: 15, ScenarioMiss: true}
	Classify(&in, &b)
	if b.Ms[CauseCompute] != 10 || b.Ms[CauseFault] != 15 || b.Ms[CauseScenarioMiss] != 15 {
		t.Fatalf("got compute=%g fault=%g miss=%g", b.Ms[CauseCompute], b.Ms[CauseFault], b.Ms[CauseScenarioMiss])
	}
	if b.Dominant != CauseScenarioMiss {
		t.Fatalf("dominant %s, want scenario-miss (tie breaks to the lower enum)", b.Dominant)
	}
	// A purely spiked frame (no recovery, no other flags) is dominated
	// by the fault charge, with the rest staying compute.
	in = FrameInput{LatencyMs: 40, PredictedMs: 10, FaultMs: 25}
	Classify(&in, &b)
	if b.Ms[CauseFault] != 25 || b.Ms[CauseCompute] != 15 || b.Dominant != CauseFault {
		t.Fatalf("spiked frame: fault=%g compute=%g dominant=%s", b.Ms[CauseFault], b.Ms[CauseCompute], b.Dominant)
	}
	// No flags at all: everything is compute.
	Classify(&FrameInput{LatencyMs: 12, PredictedMs: 9}, &b)
	if b.Ms[CauseCompute] != 12 || b.Dominant != CauseCompute {
		t.Fatalf("flagless overage: compute=%g dominant=%s", b.Ms[CauseCompute], b.Dominant)
	}
	// Faster than predicted: all compute, no overage.
	Classify(&FrameInput{LatencyMs: 5, PredictedMs: 9, Degraded: true}, &b)
	if b.Ms[CauseCompute] != 5 || b.OverMs != 0 {
		t.Fatalf("under-prediction: compute=%g over=%g", b.Ms[CauseCompute], b.OverMs)
	}
}

func TestBoolRing(t *testing.T) {
	r := newBoolRing(4)
	if r.full() || r.badFraction() != 0 {
		t.Fatal("fresh ring should be empty")
	}
	r.push(true)
	r.push(false)
	r.push(true)
	if got := r.badFraction(); got != 2.0/3.0 {
		t.Fatalf("bad fraction %g, want 2/3", got)
	}
	r.push(true)
	if !r.full() || r.badFraction() != 0.75 {
		t.Fatalf("full=%v frac=%g", r.full(), r.badFraction())
	}
	// Overwrite the whole window with good outcomes.
	for i := 0; i < 4; i++ {
		r.push(false)
	}
	if r.badFraction() != 0 {
		t.Fatalf("drained ring bad fraction %g", r.badFraction())
	}
	// 100 pushes with period-3 bads keep bad count consistent.
	for i := 0; i < 100; i++ {
		r.push(i%3 == 0)
	}
	want := 0
	for i := 96; i < 100; i++ {
		if i%3 == 0 {
			want++
		}
	}
	if r.bad != want {
		t.Fatalf("ring bad=%d want %d", r.bad, want)
	}
}

// TestBurnEngine: a cold start can't page; a full-fast-window burn
// pages; draining the fast window clears the page.
func TestBurnEngine(t *testing.T) {
	s := newSLOState(BurnConfig{Objective: 0.95})
	// Half a fast window of bad frames on an empty ring: burn is huge but
	// the ring isn't full, so no page yet.
	for i := 0; i < fastWindow/2; i++ {
		if _, to, changed := s.observe(true); changed || to != AlertOK {
			t.Fatalf("paged on a cold start at %d", i)
		}
	}
	// Fill the fast window with bads: fast burn 20 >= 8 → page.
	for i := 0; i < fastWindow/2; i++ {
		s.observe(true)
	}
	if s.state != AlertPage {
		t.Fatalf("state %s after full bad window, want page", s.state)
	}
	// A fast window of good frames drains it; the page clears (the slow
	// window is still not full, so no ticket either).
	for i := 0; i < fastWindow; i++ {
		s.observe(false)
	}
	if s.state != AlertOK {
		t.Fatalf("state %s after drain, want ok", s.state)
	}
	// Sustained slow leak: 2 bads per 8 frames = fraction 0.25, slow
	// burn 5 >= 2 once the slow ring holds only the leak, fast burn 5 < 8
	// → ticket.
	for i := 0; i < slowWindow; i++ {
		s.observe(i%4 == 0)
	}
	if s.state != AlertTicket {
		t.Fatalf("state %s after sustained leak, want ticket", s.state)
	}
}

func TestTrackerLedgerAndStatus(t *testing.T) {
	tr := NewTracker(Config{Streams: 2})
	in := FrameInput{Stream: 0, Frame: 0, LatencyMs: 30, PredictedMs: 10, BudgetMs: 20, ScenarioMiss: true}
	tr.ObserveFrame(&in)
	in = FrameInput{Stream: 1, Frame: 0, LatencyMs: 8, PredictedMs: 8, BudgetMs: 20}
	tr.ObserveFrame(&in)

	st := tr.Status(true)
	if st.Frame != 2 || st.Fleet.Frames != 2 || st.Fleet.Missed != 1 {
		t.Fatalf("fleet frame=%d frames=%d missed=%d", st.Frame, st.Fleet.Frames, st.Fleet.Missed)
	}
	var missMs, totalMs float64
	for _, c := range st.Fleet.Causes {
		totalMs += c.Ms
		if c.Cause == "scenario-miss" {
			missMs = c.Ms
		}
	}
	if missMs != 20 {
		t.Fatalf("scenario-miss charged %g ms, want 20", missMs)
	}
	if math.Abs(totalMs-38) > 1e-9 {
		t.Fatalf("fleet total %g ms, want 38", totalMs)
	}
	if len(st.Streams) != 2 || st.Streams[0].Missed != 1 || st.Streams[1].Missed != 0 {
		t.Fatalf("per-stream ledgers wrong: %+v", st.Streams)
	}
	if len(st.SLOs) != NumSLOs || st.SLOs[0].SLO != "deadline" || st.SLOs[1].SLO != "accuracy" {
		t.Fatalf("slo block wrong: %+v", st.SLOs)
	}
	// Out-of-range stream must be ignored, not panic.
	in = FrameInput{Stream: 9, LatencyMs: 5}
	tr.ObserveFrame(&in)
	if tr.Status(false).Frame != 2 {
		t.Fatal("out-of-range stream was counted")
	}
}

// TestObserveFrameAllocFree pins the frame-commit path at 0 allocs/op,
// with metrics enabled (the acceptance criterion).
func TestObserveFrameAllocFree(t *testing.T) {
	tr := NewTracker(Config{Streams: 2})
	reg := metrics.NewRegistry()
	if err := tr.EnableMetrics(reg, nil); err != nil {
		t.Fatal(err)
	}
	in := FrameInput{Stream: 1, LatencyMs: 18, PredictedMs: 12, BudgetMs: 40, CoreWait: true, Degraded: true}
	tr.ObserveFrame(&in) // warm up
	n := testing.AllocsPerRun(200, func() {
		in.Frame++
		tr.ObserveFrame(&in)
	})
	if n != 0 {
		t.Fatalf("ObserveFrame allocates %v/op, want 0", n)
	}
}

func TestTrackerMetricsFamilies(t *testing.T) {
	tr := NewTracker(Config{Streams: 1})
	reg := metrics.NewRegistry()
	if err := tr.EnableMetrics(reg, []string{"streamA"}); err != nil {
		t.Fatal(err)
	}
	in := FrameInput{Stream: 0, LatencyMs: 30, PredictedMs: 10, BudgetMs: 20, ScenarioMiss: true}
	tr.ObserveFrame(&in)
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		`triplec_slo_frames_total 1`,
		`triplec_slo_bad_frames_total{slo="deadline"} 1`,
		`triplec_slo_bad_frames_total{slo="accuracy"} 1`,
		`triplec_slo_burn_rate{slo="deadline",window="fast"}`,
		`triplec_slo_alert_state{slo="accuracy"} 0`,
		`triplec_slo_cause_ms{cause="scenario-miss",stream="streamA"} 20`,
		`triplec_slo_cause_frames{cause="scenario-miss",stream="fleet"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

func TestSlozHandler(t *testing.T) {
	tr := NewTracker(Config{Streams: 1})
	in := FrameInput{Stream: 0, LatencyMs: 30, PredictedMs: 10, BudgetMs: 20, Rebalanced: true}
	tr.ObserveFrame(&in)
	rec := httptest.NewRecorder()
	tr.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sloz", nil))
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	body := rec.Body.String()
	for _, want := range []string{"Cause ledger", "rebalance", "deadline", "accuracy"} {
		if !strings.Contains(body, want) {
			t.Errorf("sloz page missing %q", want)
		}
	}
	// Disabled tracker 404s.
	rec = httptest.NewRecorder()
	(*Tracker)(nil).Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/sloz", nil))
	if rec.Code != 404 {
		t.Fatalf("nil tracker status %d, want 404", rec.Code)
	}
}

// TestTransitionRingWraps: past transitionCap the log keeps the newest
// transitions, oldest first, through two full wraps of the ring.
func TestTransitionRingWraps(t *testing.T) {
	tr := NewTracker(Config{Streams: 1})
	fired := 0
	tr.SetOnTransition(func(Transition) { fired++ })
	bad := FrameInput{LatencyMs: 30, PredictedMs: 30, BudgetMs: 20}
	good := FrameInput{LatencyMs: 10, PredictedMs: 10, BudgetMs: 20}
	for fired < 2*transitionCap+transitionCap/2 {
		for i := 0; i < fastWindow; i++ {
			tr.ObserveFrame(&bad)
		}
		for i := 0; i < fastWindow; i++ {
			tr.ObserveFrame(&good)
		}
	}
	log := tr.Status(true).Transitions
	if len(log) != transitionCap {
		t.Fatalf("log holds %d transitions, want %d", len(log), transitionCap)
	}
	for i, x := range log {
		if want := fired - transitionCap + i; x.Seq != want {
			t.Fatalf("log[%d] is transition %d, want %d (the newest %d, oldest first)", i, x.Seq, want, transitionCap)
		}
	}
}

// TestObjectiveOfOneTakesDefault: an objective of exactly 1 leaves no error
// budget (every burn would divide by zero), so it takes the default like
// any other out-of-range objective.
func TestObjectiveOfOneTakesDefault(t *testing.T) {
	for _, o := range []float64{1, 0, -0.5, 1.5} {
		if got := (BurnConfig{Objective: o}).withDefaults(0.95).Objective; got != 0.95 {
			t.Fatalf("objective %v kept as %v, want the default 0.95", o, got)
		}
	}
	if got := (BurnConfig{Objective: 0.99}).withDefaults(0.95).Objective; got != 0.99 {
		t.Fatalf("objective 0.99 replaced by %v", got)
	}
}

// TestTicketAtExactBurn: a slow burn of exactly ticketBurn raises a ticket
// and holds it; the first frame below the bar clears it. Objective 0.75
// leaves a 0.25 budget, so alternating frames burn exactly 2 and the fast
// window can never page (its burn is at most 4).
func TestTicketAtExactBurn(t *testing.T) {
	s := newSLOState(BurnConfig{Objective: 0.75})
	for i := 0; i < slowWindow-1; i++ {
		if _, to, changed := s.observe(i%2 == 0); changed {
			t.Fatalf("frame %d: %s before the slow window filled", i, to)
		}
	}
	if _, to, changed := s.observe(false); !changed || to != AlertTicket || s.slowBurn() != ticketBurn {
		t.Fatalf("slow burn %v: state %s, want a ticket at exactly %d", s.slowBurn(), to, ticketBurn)
	}
	for i := 0; i < slowWindow; i++ {
		if _, to, changed := s.observe(i%2 == 0); changed {
			t.Fatalf("frame %d at burn %v: %s, want the ticket held", i, s.slowBurn(), to)
		}
	}
	// The oldest frame in the ring is bad: one good frame drops the burn
	// just below 2.
	if _, to, changed := s.observe(false); !changed || to != AlertOK || s.slowBurn() >= ticketBurn {
		t.Fatalf("slow burn %v: state %s, want the ticket cleared", s.slowBurn(), to)
	}
}
