package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// stripeFunc adapts a function to Striper.
type stripeFunc func(s, lo, hi int)

func (f stripeFunc) Stripe(s, lo, hi int) { f(s, lo, hi) }

// A row of StripeGrain pixels is one grain, so a call over n such rows
// splits into min(k, n) stripes.
const grainRow = StripeGrain

// HostStripes must produce exactly ForStripes' coverage: every row visited
// once, stripe bounds identical to the static split, the stripe count capped
// by k and by the grain.
func TestHostStripesCoversRange(t *testing.T) {
	for _, tc := range []struct{ n, cols, k, stripes int }{
		{1, grainRow, 1, 1}, {7, grainRow, 3, 3}, {64, grainRow, 4, 4}, {100, grainRow, 16, 16},
		{5, grainRow, 9, 5}, {64, 1, 4, 1}, {6, grainRow / 2, 4, 3}, {0, grainRow, 4, 1},
	} {
		h := NewHostStripes(tc.k)
		visits := make([]atomic.Int32, tc.n)
		var calls atomic.Int32
		h.Run(tc.n, tc.cols, stripeFunc(func(s, lo, hi int) {
			calls.Add(1)
			if want := [2]int{s * tc.n / tc.stripes, (s + 1) * tc.n / tc.stripes}; [2]int{lo, hi} != want {
				t.Errorf("n=%d k=%d: stripe %d covers [%d, %d), want %v", tc.n, tc.k, s, lo, hi, want)
			}
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		}))
		h.Close()
		if int(calls.Load()) != tc.stripes {
			t.Fatalf("n=%d cols=%d k=%d: %d stripes, want %d", tc.n, tc.cols, tc.k, calls.Load(), tc.stripes)
		}
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("n=%d k=%d: row %d visited %d times", tc.n, tc.k, i, v)
			}
		}
	}
	var nilStripes *HostStripes
	ran := 0
	nilStripes.Run(8, grainRow, stripeFunc(func(s, lo, hi int) { ran += hi - lo }))
	if ran != 8 || nilStripes.K() != 1 {
		t.Fatalf("nil HostStripes covered %d of 8 rows, K %d", ran, nilStripes.K())
	}
	nilStripes.Close()
}

// A panicking stripe surfaces on the caller as *PanicError, after every
// other stripe has still executed; the next call starts clean.
func TestHostStripesPanicStillRunsAllStripes(t *testing.T) {
	const k = 8
	h := NewHostStripes(k)
	defer h.Close()
	for _, bad := range []int{0, 2} { // the caller's stripe, a helper's
		var ran atomic.Int64
		var pe *PanicError
		func() {
			defer func() { pe, _ = recover().(*PanicError) }()
			h.Run(64, grainRow, stripeFunc(func(s, lo, hi int) {
				if s == bad {
					panic("stripe boom")
				}
				ran.Add(1)
			}))
		}()
		if pe == nil || pe.Value != "stripe boom" {
			t.Fatalf("stripe %d: panic did not surface as *PanicError (got %v)", bad, pe)
		}
		if ran.Load() != k-1 {
			t.Fatalf("stripe %d panicked: %d stripes ran, want %d", bad, ran.Load(), k-1)
		}
		var rows atomic.Int64
		h.Run(64, grainRow, stripeFunc(func(s, lo, hi int) { rows.Add(int64(hi - lo)) }))
		if rows.Load() != 64 {
			t.Fatalf("call after a panic covered %d of 64 rows", rows.Load())
		}
	}
}

// A HostStripes serves one call at a time: a call that finds another in
// flight, its helpers wedged, runs inline on its own goroutine instead of
// waiting for them.
func TestHostStripesBusyRunsInline(t *testing.T) {
	h := NewHostStripes(4)
	defer h.Close()
	hold, held, first := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(first)
		h.Run(4, grainRow, stripeFunc(func(s, lo, hi int) {
			if s == 0 {
				close(held)
				<-hold
			}
		}))
	}()
	<-held
	var stripes [][2]int
	h.Run(48, grainRow, stripeFunc(func(s, lo, hi int) { stripes = append(stripes, [2]int{lo, hi}) }))
	close(hold)
	<-first
	if len(stripes) != 1 || stripes[0] != [2]int{0, 48} {
		t.Fatalf("call beside one in flight ran as %v, want inline [0, 48)", stripes)
	}
}

// One HostStripes shared by concurrent callers: none deadlocks or loses a
// row — exercised under -race.
func TestHostStripesConcurrentCallers(t *testing.T) {
	h := NewHostStripes(4)
	defer h.Close()
	const callers = 6
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				h.Run(48, grainRow, stripeFunc(func(s, lo, hi int) { total.Add(int64(hi - lo)) }))
			}
		}()
	}
	wg.Wait()
	if want := int64(callers * 20 * 48); total.Load() != want {
		t.Fatalf("covered %d rows, want %d", total.Load(), want)
	}
}

// onHelper reports whether the calling goroutine is a HostStripes helper.
func onHelper() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*HostStripes).helper") {
			return true
		}
		if !more {
			return false
		}
	}
}

// deepPanic panics depth frames down, so recovering it and taking its stack
// (AsPanicError) walks a long stack and takes milliseconds.
func deepPanic(depth int) {
	if depth == 0 {
		panic("deep stripe boom")
	}
	deepPanic(depth - 1)
}

// A stripe that panics on a helper while the caller already waits in the
// join must still surface on the caller. The panicking stripe is held until
// the caller's own stripe has returned and the caller has had time to enter
// the join, and its deep stack makes recording the panic slow: a join
// released before the panic is recorded returns without re-panicking.
func TestHostStripesHelperPanicAfterCallerJoins(t *testing.T) {
	h := NewHostStripes(2)
	defer h.Close()
	for iter := 0; iter < 3; iter++ {
		callerDone := make(chan struct{})
		var helperRan atomic.Bool
		var pe *PanicError
		func() {
			defer func() { pe, _ = recover().(*PanicError) }()
			h.Run(2, grainRow, stripeFunc(func(s, lo, hi int) {
				if !onHelper() {
					close(callerDone)
					return
				}
				helperRan.Store(true)
				<-callerDone
				time.Sleep(10 * time.Millisecond)
				deepPanic(20000)
			}))
		}()
		if !helperRan.Load() {
			t.Fatalf("iteration %d: stripe 1 did not run on the helper", iter)
		}
		if pe == nil || pe.Value != "deep stripe boom" {
			t.Fatalf("iteration %d: helper stripe panic did not surface on the caller (got %v)", iter, pe)
		}
	}
}

// Close stops the helpers, may race a call, and leaves a HostStripes whose
// calls run inline; the helpers' goroutines are gone afterwards.
func TestHostStripesCloseRunsInline(t *testing.T) {
	base := runtime.NumGoroutine()
	h := NewHostStripes(3)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			var rows atomic.Int64
			h.Run(30, grainRow, stripeFunc(func(s, lo, hi int) { rows.Add(int64(hi - lo)) }))
			if rows.Load() != 30 {
				t.Errorf("call racing Close covered %d of 30 rows", rows.Load())
			}
		}
	}()
	go func() { defer wg.Done(); h.Close() }()
	wg.Wait()
	h.Close()
	h.Run(30, grainRow, stripeFunc(func(s, lo, hi int) {
		if onHelper() {
			t.Error("a stripe ran on a helper after Close")
		}
	}))
	waitGoroutines(t, base)
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want %d", runtime.NumGoroutine(), base)
		}
	}
}

// A striped call allocates nothing: the hand-off, the join and the panic
// box are the HostStripes' own.
func TestHostStripesRunDoesNotAllocate(t *testing.T) {
	h := NewHostStripes(3)
	defer h.Close()
	var rows [3]int
	body := stripeFunc(func(s, lo, hi int) { rows[s] = hi - lo })
	if avg := testing.AllocsPerRun(100, func() { h.Run(96, grainRow, body) }); avg != 0 {
		t.Fatalf("HostStripes.Run: %.2f allocs/op, want 0", avg)
	}
	if rows != [3]int{32, 32, 32} {
		t.Fatalf("stripes covered %v rows", rows)
	}
}

// A background job runs on the first helper while Go's caller goes on, and
// Wait returns once it has, its writes visible to the caller.
func TestHostStripesGoRunsOnHelper(t *testing.T) {
	h := NewHostStripes(2)
	defer h.Close()
	release := make(chan struct{})
	var onHelperRan bool
	h.Go(func() {
		<-release // Go must return before the job does
		onHelperRan = onHelper()
	})
	close(release)
	h.Wait()
	if !onHelperRan {
		t.Fatal("the background job did not run on a helper")
	}
	h.Wait() // nothing pending: returns at once
}

// A background job runs inline, before Go returns, on a nil or one-stripe
// HostStripes, after Close, and beside a call in flight.
func TestHostStripesGoInline(t *testing.T) {
	closed := NewHostStripes(2)
	closed.Close()
	busy := NewHostStripes(2)
	defer busy.Close()
	hold, held, first := make(chan struct{}), make(chan struct{}), make(chan struct{})
	go func() {
		defer close(first)
		busy.Run(2, grainRow, stripeFunc(func(s, lo, hi int) {
			if s == 0 {
				close(held)
				<-hold
			}
		}))
	}()
	<-held
	for name, h := range map[string]*HostStripes{"nil": nil, "k=1": NewHostStripes(1), "closed": closed, "busy": busy} {
		ran, helper := false, true
		h.Go(func() { ran, helper = true, onHelper() })
		if !ran || helper {
			t.Errorf("%s: job ran %v before Go returned, on a helper %v; want inline", name, ran, helper)
		}
		h.Wait()
	}
	close(hold)
	<-first
}

// Run, Wait and Close each join a pending background job: when they return,
// the job has, and its writes are visible (checked under -race).
func TestHostStripesGoJoined(t *testing.T) {
	joins := map[string]func(h *HostStripes){
		"Run":        func(h *HostStripes) { h.Run(2, grainRow, stripeFunc(func(s, lo, hi int) {})) },
		"inline Run": func(h *HostStripes) { h.Run(1, 1, stripeFunc(func(s, lo, hi int) {})) },
		"Wait":       (*HostStripes).Wait,
		"Close":      (*HostStripes).Close,
	}
	for name, join := range joins {
		h := NewHostStripes(3)
		done := false
		h.Go(func() {
			time.Sleep(5 * time.Millisecond)
			done = true
		})
		join(h)
		if !done {
			t.Errorf("%s returned before the background job", name)
		}
		h.Close()
	}
}

// A background job that panics on the helper re-panics as *PanicError at
// the join that finds it, Wait or Run; the next job and call are clean.
func TestHostStripesGoPanicSurfacesAtJoin(t *testing.T) {
	h := NewHostStripes(2)
	defer h.Close()
	joins := []func(){h.Wait, func() { h.Run(2, grainRow, stripeFunc(func(s, lo, hi int) {})) }}
	for i, join := range joins {
		h.Go(func() { panic("job boom") })
		var pe *PanicError
		func() {
			defer func() { pe, _ = recover().(*PanicError) }()
			join()
		}()
		if pe == nil || pe.Value != "job boom" {
			t.Fatalf("join %d: job panic did not surface as *PanicError (got %v)", i, pe)
		}
		ran := false
		h.Go(func() { ran = true })
		h.Wait()
		var rows atomic.Int64
		h.Run(2, grainRow, stripeFunc(func(s, lo, hi int) { rows.Add(int64(hi - lo)) }))
		if !ran || rows.Load() != 2 {
			t.Fatalf("join %d: after a job panic, job ran %v and a call covered %d of 2 rows", i, ran, rows.Load())
		}
	}
}

// Two callers shaped like the pipelined executor's halves share one
// HostStripes: the back one joins, stripes and hands a job off each frame,
// the front one stripes; neither races, deadlocks or loses a row.
func TestHostStripesGoConcurrentHalves(t *testing.T) {
	h := NewHostStripes(2)
	defer h.Close()
	const frames = 200
	var rows atomic.Int64
	body := stripeFunc(func(s, lo, hi int) { rows.Add(int64(hi - lo)) })
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // front
		defer wg.Done()
		for i := 0; i < frames; i++ {
			h.Run(8, grainRow, body)
		}
	}()
	go func() { // back
		defer wg.Done()
		var next []int
		job := func() { next = make([]int, 64) }
		for i := 0; i < frames; i++ {
			h.Wait()
			if i > 0 && len(next) != 64 {
				t.Errorf("frame %d: the job's buffer is not there after Wait", i)
				return
			}
			next = nil
			h.Run(8, grainRow, body)
			h.Go(job)
		}
	}()
	wg.Wait()
	if want := int64(2 * frames * 8); rows.Load() != want {
		t.Fatalf("covered %d rows, want %d", rows.Load(), want)
	}
}

// Handing a job off and joining it allocates nothing.
func TestHostStripesGoDoesNotAllocate(t *testing.T) {
	h := NewHostStripes(2)
	defer h.Close()
	n := 0
	job := func() { n++ }
	if avg := testing.AllocsPerRun(100, func() { h.Go(job); h.Wait() }); avg != 0 {
		t.Fatalf("HostStripes.Go + Wait: %.2f allocs/op, want 0", avg)
	}
	if n != 101 {
		t.Fatalf("job ran %d times, want 101", n)
	}
}
