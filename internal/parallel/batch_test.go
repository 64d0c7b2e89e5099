package parallel

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestSubmitBatchRunsAll(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	jobs := make([]func(), 100)
	for i := range jobs {
		jobs[i] = func() { ran.Add(1) }
	}
	if err := p.SubmitBatch(jobs); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if ran.Load() != 100 {
		t.Fatalf("ran %d jobs, want 100", ran.Load())
	}
	if err := p.SubmitBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

func TestSubmitBatchRejectsAtomically(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var ran atomic.Int64
	good := func() { ran.Add(1) }
	if err := p.SubmitBatch([]func(){good, nil, good}); err == nil {
		t.Fatal("batch with a nil job accepted")
	}
	p.Wait()
	if ran.Load() != 0 {
		t.Fatalf("%d jobs from a rejected batch ran", ran.Load())
	}
}

func TestSubmitBatchAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	if err := p.SubmitBatch([]func(){func() {}}); err == nil {
		t.Fatal("closed pool accepted a batch")
	}
	if n := p.TrySubmitBatch([]func(){func() {}}); n != 0 {
		t.Fatalf("closed pool accepted %d try-submitted jobs", n)
	}
}

// TrySubmitBatch must never block: with every worker wedged and the buffer
// full it accepts what fits and returns immediately.
func TestTrySubmitBatchNonBlocking(t *testing.T) {
	p := NewPool(1) // buffer of 2
	defer p.Close()
	release := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(1)
	if err := p.Submit(func() { wedged.Done(); <-release }); err != nil {
		t.Fatal(err)
	}
	wedged.Wait() // the single worker is now blocked
	var ran atomic.Int64
	jobs := make([]func(), 10)
	for i := range jobs {
		jobs[i] = func() { ran.Add(1) }
	}
	n := p.TrySubmitBatch(jobs) // fills the 2-slot buffer at most
	if n < 1 || n > 2 {
		t.Fatalf("accepted %d jobs into a 2-slot buffer", n)
	}
	close(release)
	p.Wait()
	if ran.Load() != int64(n) {
		t.Fatalf("ran %d of the %d accepted jobs", ran.Load(), n)
	}
}

func TestDoBatchCompletesAndReportsPanic(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var ran atomic.Int64
	jobs := []func(){
		func() { ran.Add(1) },
		func() { panic("boom") },
		func() { ran.Add(1) },
		func() { ran.Add(1) },
	}
	err := p.DoBatch(jobs)
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Fatalf("err = %v, want the job panic", err)
	}
	if _, ok := err.(*PanicError); !ok {
		t.Fatalf("err %T, want *PanicError", err)
	}
	if ran.Load() != 3 {
		t.Fatalf("ran %d non-panicking jobs, want all 3 despite the panic", ran.Load())
	}
	if err := p.DoBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
}

// StripesOn must produce exactly ForStripes' coverage: every index visited
// once, stripe bounds identical to the static split.
func TestStripesOnCoversRange(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	for _, tc := range []struct{ n, k int }{{1, 1}, {7, 3}, {64, 4}, {100, 16}, {5, 9}} {
		visits := make([]atomic.Int32, tc.n)
		StripesOn(p, tc.n, tc.k, func(stripe, lo, hi int) {
			for i := lo; i < hi; i++ {
				visits[i].Add(1)
			}
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("n=%d k=%d: index %d visited %d times", tc.n, tc.k, i, v)
			}
		}
	}
	StripesOn(p, 0, 4, func(int, int, int) { t.Fatal("n=0 must be a no-op") })
	StripesOn(nil, 8, 2, func(stripe, lo, hi int) {}) // nil pool falls back
}

// A panicking stripe surfaces on the caller as *PanicError, after every
// other stripe has still executed (the drain loop must not stop claiming).
func TestStripesOnPanicStillRunsAllStripes(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	const k = 8
	var ran atomic.Int64
	var pe *PanicError
	func() {
		defer func() {
			if r := recover(); r != nil {
				pe, _ = r.(*PanicError)
			}
		}()
		StripesOn(p, 64, k, func(stripe, lo, hi int) {
			if stripe == 2 {
				panic("stripe boom")
			}
			ran.Add(1)
		})
	}()
	if pe == nil {
		t.Fatal("stripe panic did not surface as *PanicError")
	}
	if ran.Load() != k-1 {
		t.Fatalf("%d stripes ran, want %d despite the panicking one", ran.Load(), k-1)
	}
}

// With every worker wedged, StripesOn must still complete on the caller's
// goroutine — the claim-based design degrades to serial, never to deadlock.
func TestStripesOnBusyPoolNoDeadlock(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	release := make(chan struct{})
	var wedged sync.WaitGroup
	wedged.Add(2)
	for i := 0; i < 2; i++ {
		if err := p.Submit(func() { wedged.Done(); <-release }); err != nil {
			t.Fatal(err)
		}
	}
	wedged.Wait()
	var ran atomic.Int64
	StripesOn(p, 32, 8, func(stripe, lo, hi int) { ran.Add(1) })
	if ran.Load() != 8 {
		t.Fatalf("%d stripes ran with the pool wedged, want all 8", ran.Load())
	}
	close(release)
	p.Wait()
}

// Concurrent StripesOn callers share one pool without losing stripes —
// the serving layer's batching shape, exercised under -race.
func TestStripesOnConcurrentCallers(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	const callers = 6
	var total atomic.Int64
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			for iter := 0; iter < 20; iter++ {
				StripesOn(p, 48, 4, func(stripe, lo, hi int) {
					total.Add(int64(hi - lo))
				})
			}
		}()
	}
	wg.Wait()
	if want := int64(callers * 20 * 48); total.Load() != want {
		t.Fatalf("covered %d indices, want %d", total.Load(), want)
	}
}

// onPoolWorker reports whether the calling goroutine is one of a Pool's
// workers rather than the goroutine that called StripesOn.
func onPoolWorker() bool {
	pc := make([]uintptr, 64)
	frames := runtime.CallersFrames(pc[:runtime.Callers(2, pc)])
	for {
		f, more := frames.Next()
		if strings.HasSuffix(f.Function, ".(*Pool).runJob") {
			return true
		}
		if !more {
			return false
		}
	}
}

// deepPanic panics depth frames down, so recovering it and taking its stack
// (asPanicError) walks a long stack and takes milliseconds.
func deepPanic(depth int) {
	if depth == 0 {
		panic("deep stripe boom")
	}
	deepPanic(depth - 1)
}

// A stripe that panics on a pool worker while the caller already waits in
// the join must still surface on the caller. The panicking stripe is held
// until the caller's own stripe has returned and the caller has had time to
// enter the join, and its deep stack makes recording the panic slow: a join
// released before the panic is recorded returns without re-panicking.
func TestStripesOnHelperPanicAfterCallerJoins(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(max(2, runtime.GOMAXPROCS(0))))
	p := NewPool(1)
	defer p.Close()
	exercised := 0
	for iter := 0; iter < 50 && exercised < 3; iter++ {
		helperClaimed := make(chan struct{})
		callerDone := make(chan struct{})
		callerReturns := sync.OnceFunc(func() { close(callerDone) })
		var onHelper atomic.Bool
		var pe *PanicError
		func() {
			defer func() { pe, _ = recover().(*PanicError) }()
			StripesOn(p, 2, 2, func(stripe, lo, hi int) {
				if !onPoolWorker() {
					select { // give the helper the chance to claim the other stripe
					case <-helperClaimed:
					case <-time.After(50 * time.Millisecond):
					}
					callerReturns()
					return
				}
				onHelper.Store(true)
				close(helperClaimed)
				<-callerDone
				time.Sleep(10 * time.Millisecond)
				deepPanic(20000)
			})
		}()
		if !onHelper.Load() {
			continue // the caller ran both stripes; nothing panicked
		}
		exercised++
		if pe == nil || pe.Value != "deep stripe boom" {
			t.Fatalf("iteration %d: helper stripe panic did not surface on the caller (got %v)", iter, pe)
		}
	}
	if exercised == 0 {
		t.Fatal("no stripe ran on the pool worker")
	}
}
