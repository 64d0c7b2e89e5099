// Package parallel provides the real shared-memory execution layer behind
// the reproduction's data-parallel striping: a bounded worker pool and
// stripe/for helpers built on goroutines. The machine model in
// internal/platform answers "how long would this take on the paper's 2007
// platform"; this package actually runs the pixel work concurrently on the
// host, and the wall-clock benchmarks in bench_test.go validate that the
// striping the runtime manager plans really scales the way the model
// assumes.
package parallel

import (
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
)

// PanicError wraps a panic recovered from a parallel job so callers receive
// it as an ordinary error (Pool.Do) or as a re-panic on their own goroutine
// (ForStripes, StripesOn) instead of the process crashing on a worker
// goroutine.
type PanicError struct {
	Value any    // the value originally passed to panic
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job panicked: %v", e.Value)
}

// asPanicError wraps a recovered value, reusing an already-wrapped panic so
// nested recovery layers (stripe goroutine -> pool worker -> Do caller) do
// not stack PanicErrors inside each other.
func asPanicError(r any) *PanicError {
	if pe, ok := r.(*PanicError); ok {
		return pe
	}
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// panicBox collects the first panic from a group of goroutines.
type panicBox struct {
	mu  sync.Mutex
	err *PanicError
}

// capture records the recovered value r if it is the first panic seen.
func (b *panicBox) capture(r any) {
	if r == nil {
		return
	}
	pe := asPanicError(r)
	b.mu.Lock()
	if b.err == nil {
		b.err = pe
	}
	b.mu.Unlock()
}

// rethrow re-panics the first captured panic on the calling goroutine.
func (b *panicBox) rethrow() {
	b.mu.Lock()
	err := b.err
	b.mu.Unlock()
	if err != nil {
		panic(err)
	}
}

// settle is a stripe's last deferred call: it records the stripe's panic,
// if any, and only then marks the stripe done, so a join that returns has
// every panic in the box. It must be deferred directly (recover only stops
// a panic when called by the deferred function itself).
func (b *panicBox) settle(done *sync.WaitGroup) {
	b.capture(recover())
	done.Done()
}

// ForStripes splits the half-open index range [0, n) into k contiguous
// stripes and runs fn(stripe, lo, hi) concurrently, one goroutine per
// stripe. It blocks until every stripe completes. k is clamped to [1, n]
// (for n > 0); n <= 0 is a no-op.
func ForStripes(n, k int, fn func(stripe, lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	if k < 1 {
		k = 1
	}
	if k > n {
		k = n
	}
	if k == 1 {
		fn(0, 0, n)
		return
	}
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(k)
	for s := 0; s < k; s++ {
		lo := s * n / k
		hi := (s + 1) * n / k
		go func(stripe, lo, hi int) {
			defer box.settle(&wg)
			fn(stripe, lo, hi)
		}(s, lo, hi)
	}
	wg.Wait()
	// A stripe panic surfaces on the caller (as a *PanicError) after every
	// stripe has finished, so a recover() around ForStripes observes a
	// consistent, fully-joined state instead of a crashed worker goroutine.
	box.rethrow()
}

// Pool is a reusable fixed-size worker pool. Submissions run on the pool's
// goroutines. The zero value is not usable; construct with NewPool and
// release with Close.
type Pool struct {
	jobs    chan func()
	wg      sync.WaitGroup // tracks in-flight jobs
	workers sync.WaitGroup // tracks worker goroutines
	panics  atomic.Uint64  // jobs that panicked (recovered by the worker)
	closed  bool
	mu      sync.Mutex
}

// NewPool starts a pool with k workers (k < 1 defaults to GOMAXPROCS).
func NewPool(k int) *Pool {
	if k < 1 {
		k = runtime.GOMAXPROCS(0)
	}
	p := &Pool{jobs: make(chan func(), k*2)}
	p.workers.Add(k)
	for i := 0; i < k; i++ {
		go func() {
			defer p.workers.Done()
			for job := range p.jobs {
				p.runJob(job)
				p.wg.Done()
			}
		}()
	}
	return p
}

// runJob executes one job, recovering a panic so the worker goroutine (and
// with it the whole process) survives and the in-flight accounting that
// Do and Close depend on still completes. Do-submitted jobs install
// their own recover first and hand the panic back to the Do caller; this
// outer recover is the safety net for fire-and-forget Submit jobs.
func (p *Pool) runJob(job func()) {
	defer func() {
		if r := recover(); r != nil {
			p.panics.Add(1)
		}
	}()
	job()
}

// Submit queues one job. It returns an error after Close.
func (p *Pool) Submit(job func()) error {
	if job == nil {
		return errors.New("parallel: nil job")
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return errors.New("parallel: pool closed")
	}
	p.wg.Add(1)
	p.jobs <- job
	return nil
}

// TrySubmitBatch queues as many jobs as fit in the pool's buffer without
// blocking and returns how many were accepted (nil jobs are skipped). It is
// the submission path for *optional* work — StripesOn's redundant wake-up
// helpers — where blocking the caller on a saturated pool would invert the
// point of submitting at all.
func (p *Pool) TrySubmitBatch(jobs []func()) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return 0
	}
	submitted := 0
	for _, j := range jobs {
		if j == nil {
			continue
		}
		p.wg.Add(1)
		select {
		case p.jobs <- j:
			submitted++
		default:
			p.wg.Done()
			return submitted
		}
	}
	return submitted
}

// Do runs job on a pool worker and blocks until it completes. Callers from
// independent goroutines thereby share the pool's fixed concurrency: with k
// workers at most k Do bodies execute at once, which is how the stream
// serving layer keeps N streams from oversubscribing the host's cores.
//
// A panic inside job does not crash the process or wedge the pool: Do
// recovers it on the worker and returns it to the caller as a *PanicError.
func (p *Pool) Do(job func()) error {
	if job == nil {
		return errors.New("parallel: nil job")
	}
	return p.NewCall(job).Do()
}

// Call is Do for a job that runs many times, one run at a time: the channel
// and the closures of the hand-off are made once, so a steady-state Do
// allocates nothing.
type Call struct {
	pool *Pool
	job  func()
	run  func()        // c.exec, bound once
	done chan struct{} // buffered: exec signals without waiting for Do
	err  error         // the run's *PanicError, if it panicked
}

// NewCall returns the reusable hand-off of job to p's workers.
func (p *Pool) NewCall(job func()) *Call {
	c := &Call{pool: p, job: job, done: make(chan struct{}, 1)}
	c.run = c.exec
	return c
}

func (c *Call) exec() {
	defer func() {
		if r := recover(); r != nil {
			c.err = asPanicError(r)
		}
		c.done <- struct{}{}
	}()
	c.job()
}

// Do is Pool.Do of the call's job.
func (c *Call) Do() error {
	c.err = nil
	if err := c.pool.Submit(c.run); err != nil {
		return err
	}
	<-c.done
	return c.err
}

// StripesOn runs the same striped loop as ForStripes but executes the
// stripes on p's workers instead of spawning fresh goroutines, so several
// streams striping concurrently share the pool's fixed concurrency rather
// than oversubscribing the host. It blocks until every stripe completes and
// re-panics the first stripe panic on the caller, exactly like ForStripes.
// A nil pool falls back to ForStripes.
//
// The work distribution is claim-based to stay deadlock-free: stripes live
// behind an atomic counter, the *caller* drains claims itself, and up to k-1
// redundant wake-up helpers are offered to the pool without blocking
// (TrySubmitBatch). A saturated or busy pool therefore never stalls the
// frame — the caller just executes every stripe on its own goroutine, which
// is the serial floor, never a deadlock.
func StripesOn(p *Pool, n, k int, fn func(stripe, lo, hi int)) {
	if n <= 0 || fn == nil {
		return
	}
	if k > n {
		k = n
	}
	if k <= 1 {
		fn(0, 0, n)
		return
	}
	if p == nil {
		ForStripes(n, k, fn)
		return
	}
	var next atomic.Int64
	var box panicBox
	var done sync.WaitGroup
	done.Add(k)
	claimOne := func() (more bool) {
		s := int(next.Add(1) - 1)
		if s >= k {
			return false
		}
		// more is set before fn runs so a panicking stripe is captured and
		// the drain loop moves on to the next stripe instead of abandoning
		// the unclaimed remainder (which would hang the join below).
		more = true
		defer box.settle(&done)
		fn(s, s*n/k, (s+1)*n/k)
		return true
	}
	drain := func() {
		for claimOne() {
		}
	}
	helpers := make([]func(), k-1)
	for i := range helpers {
		helpers[i] = drain
	}
	p.TrySubmitBatch(helpers)
	drain()
	// Every stripe was claimed exactly once (atomic counter) and each claim
	// decrements done even on panic, so this join cannot hang; it only waits
	// for stripes a helper claimed before the caller finished draining.
	done.Wait()
	box.rethrow()
}

// Close drains the pool and stops the workers. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	p.mu.Unlock()
	p.wg.Wait()
	close(p.jobs)
	p.workers.Wait()
}
