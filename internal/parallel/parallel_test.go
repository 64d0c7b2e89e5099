package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestForStripesCoversRangeExactlyOnce(t *testing.T) {
	const n = 1000
	var hits [n]int32
	ForStripes(n, 7, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&hits[i], 1)
		}
	})
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestForStripesStripeIndices(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	ForStripes(100, 4, func(stripe, lo, hi int) {
		mu.Lock()
		seen[stripe] = true
		mu.Unlock()
		if hi <= lo {
			t.Errorf("stripe %d empty: [%d,%d)", stripe, lo, hi)
		}
	})
	if len(seen) != 4 {
		t.Fatalf("stripes run = %d, want 4", len(seen))
	}
}

func TestForStripesClamps(t *testing.T) {
	// k > n must clamp; every index still visited once.
	var count int32
	ForStripes(3, 100, func(_, lo, hi int) {
		atomic.AddInt32(&count, int32(hi-lo))
	})
	if count != 3 {
		t.Fatalf("visited %d indices, want 3", count)
	}
	// Degenerates are no-ops.
	ForStripes(0, 4, func(_, _, _ int) { t.Fatal("must not run") })
	ForStripes(-5, 4, func(_, _, _ int) { t.Fatal("must not run") })
	ForStripes(5, 2, nil)
}

func TestForStripesSerialPath(t *testing.T) {
	calls := 0
	ForStripes(10, 1, func(stripe, lo, hi int) {
		calls++
		if stripe != 0 || lo != 0 || hi != 10 {
			t.Fatalf("serial stripe wrong: %d [%d,%d)", stripe, lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("serial path ran %d times", calls)
	}
}

func TestMapVisitsAll(t *testing.T) {
	const n = 500
	var hits [n]int32
	Map(n, 8, func(i int) { atomic.AddInt32(&hits[i], 1) })
	for i, h := range hits {
		if h != 1 {
			t.Fatalf("index %d visited %d times", i, h)
		}
	}
}

func TestMapDegenerate(t *testing.T) {
	Map(0, 4, func(int) { t.Fatal("must not run") })
	Map(5, 3, nil)
	count := 0
	Map(4, 1, func(int) { count++ })
	if count != 4 {
		t.Fatalf("serial Map ran %d times", count)
	}
}

func TestPoolRunsJobs(t *testing.T) {
	p := NewPool(4)
	defer p.Close()
	var sum int64
	for i := 1; i <= 100; i++ {
		i := i
		if err := p.Submit(func() { atomic.AddInt64(&sum, int64(i)) }); err != nil {
			t.Fatal(err)
		}
	}
	p.Wait()
	if sum != 5050 {
		t.Fatalf("sum = %d, want 5050", sum)
	}
}

func TestPoolReuseAfterWait(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	var n int64
	for round := 0; round < 3; round++ {
		for i := 0; i < 10; i++ {
			if err := p.Submit(func() { atomic.AddInt64(&n, 1) }); err != nil {
				t.Fatal(err)
			}
		}
		p.Wait()
	}
	if n != 30 {
		t.Fatalf("jobs run = %d, want 30", n)
	}
}

func TestPoolSubmitAfterClose(t *testing.T) {
	p := NewPool(2)
	p.Close()
	if err := p.Submit(func() {}); err == nil {
		t.Fatal("submit after close accepted")
	}
	p.Close() // idempotent
}

func TestPoolNilJob(t *testing.T) {
	p := NewPool(1)
	defer p.Close()
	if err := p.Submit(nil); err == nil {
		t.Fatal("nil job accepted")
	}
}

func TestPoolDefaultSize(t *testing.T) {
	p := NewPool(0)
	defer p.Close()
	done := make(chan struct{})
	if err := p.Submit(func() { close(done) }); err != nil {
		t.Fatal(err)
	}
	<-done
}

// Property: for any n and k, stripes partition [0, n) without gaps or
// overlaps and in order.
func TestPropertyStripesPartition(t *testing.T) {
	f := func(nRaw, kRaw uint8) bool {
		n, k := int(nRaw), int(kRaw)%16+1
		if n == 0 {
			return true
		}
		type span struct{ lo, hi int }
		var mu sync.Mutex
		var spans []span
		ForStripes(n, k, func(_, lo, hi int) {
			mu.Lock()
			spans = append(spans, span{lo, hi})
			mu.Unlock()
		})
		covered := make([]bool, n)
		for _, s := range spans {
			for i := s.lo; i < s.hi; i++ {
				if i < 0 || i >= n || covered[i] {
					return false
				}
				covered[i] = true
			}
		}
		for _, c := range covered {
			if !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Regression for the atomic work counter: many Map calls racing on separate
// counters must still each visit every index exactly once (run with -race).
func TestMapConcurrentCallers(t *testing.T) {
	const n, callers = 300, 6
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			var hits [n]int32
			Map(n, 4, func(i int) { atomic.AddInt32(&hits[i], 1) })
			for i, h := range hits {
				if h != 1 {
					t.Errorf("index %d visited %d times", i, h)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// Do must block the caller until the job completes and bound the number of
// concurrently executing bodies at the pool size even with more callers.
func TestPoolDoBoundsConcurrency(t *testing.T) {
	const workers, callers = 3, 12
	p := NewPool(workers)
	defer p.Close()
	var inFlight, peak int64
	var wg sync.WaitGroup
	wg.Add(callers)
	for c := 0; c < callers; c++ {
		go func() {
			defer wg.Done()
			ran := false
			err := p.Do(func() {
				cur := atomic.AddInt64(&inFlight, 1)
				for {
					old := atomic.LoadInt64(&peak)
					if cur <= old || atomic.CompareAndSwapInt64(&peak, old, cur) {
						break
					}
				}
				ran = true
				atomic.AddInt64(&inFlight, -1)
			})
			if err != nil {
				t.Error(err)
			}
			if !ran {
				t.Error("Do returned before the job ran")
			}
		}()
	}
	wg.Wait()
	if got := atomic.LoadInt64(&peak); got > workers {
		t.Fatalf("peak concurrency %d exceeds pool size %d", got, workers)
	}
}

func TestPoolDoErrors(t *testing.T) {
	p := NewPool(1)
	if err := p.Do(nil); err == nil {
		t.Fatal("nil job accepted")
	}
	p.Close()
	if err := p.Do(func() {}); err == nil {
		t.Fatal("Do after close accepted")
	}
}

// Regression: a panic inside a pooled job used to take down the worker
// goroutine (and with it the whole process); now Do returns the panic as a
// *PanicError and the pool stays fully usable — no deadlocked Do callers, no
// wedged Wait or Close.
func TestPoolDoSurvivesPanic(t *testing.T) {
	p := NewPool(2)
	defer p.Close()
	err := p.Do(func() { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("Do returned %v, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("panic value %v, want boom", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("panic stack not captured")
	}
	// The pool must still run jobs on all workers afterwards.
	var n int64
	for i := 0; i < 20; i++ {
		if err := p.Do(func() { atomic.AddInt64(&n, 1) }); err != nil {
			t.Fatal(err)
		}
	}
	if n != 20 {
		t.Fatalf("jobs after panic = %d, want 20", n)
	}
	if p.Panics() != 0 {
		// Do recovers before the worker's safety net, so the pool-level
		// counter only counts fire-and-forget Submit panics.
		t.Fatalf("Do panic leaked to the pool counter: %d", p.Panics())
	}
}

// A Call is Do made once: it hands a panic back as a *PanicError, runs again
// after one, refuses a closed pool, and in steady state allocates nothing.
func TestCallReuse(t *testing.T) {
	p := NewPool(1)
	runs, boom := 0, false
	c := p.NewCall(func() {
		runs++
		if boom {
			panic("boom")
		}
	})
	if err := c.Do(); err != nil || runs != 1 {
		t.Fatalf("first Do: err %v after %d runs", err, runs)
	}
	boom = true
	var pe *PanicError
	if err := c.Do(); !errors.As(err, &pe) || pe.Value != "boom" || len(pe.Stack) == 0 {
		t.Fatalf("panicking Do returned %v, want a *PanicError carrying boom and a stack", err)
	}
	boom = false
	if err := c.Do(); err != nil || runs != 3 {
		t.Fatalf("Do after a panic: err %v after %d runs, want nil after 3", err, runs)
	}
	if p.Panics() != 0 {
		t.Fatalf("Call panic leaked to the pool counter: %d", p.Panics())
	}
	if avg := testing.AllocsPerRun(100, func() { _ = c.Do() }); avg != 0 {
		t.Fatalf("Call.Do: %.1f allocs/op in steady state, want 0", avg)
	}
	p.Close()
	if err := c.Do(); err == nil {
		t.Fatal("Do after close accepted")
	}
}

// Concurrent Do callers must all get their results back even when some jobs
// panic (the original bug: one panic stranded every waiting caller).
func TestPoolDoConcurrentPanics(t *testing.T) {
	p := NewPool(3)
	defer p.Close()
	var wg sync.WaitGroup
	var panics, oks int64
	for c := 0; c < 24; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := p.Do(func() {
				if c%3 == 0 {
					panic(c)
				}
			})
			var pe *PanicError
			switch {
			case errors.As(err, &pe):
				atomic.AddInt64(&panics, 1)
			case err == nil:
				atomic.AddInt64(&oks, 1)
			default:
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	if panics != 8 || oks != 16 {
		t.Fatalf("panics=%d oks=%d, want 8/16", panics, oks)
	}
}

// A fire-and-forget Submit job that panics must not kill the worker: Wait
// still returns, the panic counter records it, and Close drains cleanly.
func TestPoolSubmitPanicRecovered(t *testing.T) {
	p := NewPool(1)
	if err := p.Submit(func() { panic("fire-and-forget") }); err != nil {
		t.Fatal(err)
	}
	p.Wait()
	if got := p.Panics(); got != 1 {
		t.Fatalf("pool panic counter = %d, want 1", got)
	}
	var ran bool
	if err := p.Do(func() { ran = true }); err != nil || !ran {
		t.Fatalf("pool unusable after Submit panic: err=%v ran=%v", err, ran)
	}
	p.Close()
}

// A panic in a stripe goroutine must surface on the calling goroutine as a
// *PanicError re-panic after all stripes joined, not crash the process.
func TestForStripesRethrowsPanic(t *testing.T) {
	var visited int32
	defer func() {
		r := recover()
		pe, ok := r.(*PanicError)
		if !ok {
			t.Fatalf("recovered %v, want *PanicError", r)
		}
		if pe.Value != "stripe down" {
			t.Fatalf("panic value %v", pe.Value)
		}
		// Every other stripe still completed before the rethrow.
		if got := atomic.LoadInt32(&visited); got != 3 {
			t.Fatalf("%d healthy stripes ran, want 3", got)
		}
	}()
	ForStripes(4, 4, func(stripe, lo, hi int) {
		if stripe == 1 {
			panic("stripe down")
		}
		atomic.AddInt32(&visited, 1)
	})
	t.Fatal("ForStripes did not re-panic")
}

// Same contract for Map's shared-queue workers.
func TestMapRethrowsPanic(t *testing.T) {
	defer func() {
		if _, ok := recover().(*PanicError); !ok {
			t.Fatal("Map did not re-panic as *PanicError")
		}
	}()
	Map(100, 4, func(i int) {
		if i == 50 {
			panic(i)
		}
	})
	t.Fatal("Map did not re-panic")
}
