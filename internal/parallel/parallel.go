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
// it as an ordinary error (Pool.Do, a served frame) or as a re-panic on
// their own goroutine (ForStripes, HostStripes.Run) instead of the process
// crashing on a worker goroutine.
type PanicError struct {
	Value any    // the value originally passed to panic
	Stack []byte // stack of the panicking goroutine
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("parallel: job panicked: %v", e.Value)
}

// AsPanicError wraps a value recovered from a job, reusing an
// already-wrapped panic so nested recovery layers (stripe goroutine -> pool
// worker -> Do caller) do not stack PanicErrors inside each other. Call it
// from the deferred function that recovered, so the stack is the panic's.
func AsPanicError(r any) *PanicError {
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
	pe := AsPanicError(r)
	b.mu.Lock()
	if b.err == nil {
		b.err = pe
	}
	b.mu.Unlock()
}

// rethrow re-panics the first captured panic on the calling goroutine and
// empties the box for its next use.
func (b *panicBox) rethrow() {
	b.mu.Lock()
	err := b.err
	b.err = nil
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

// Do runs job on a pool worker and blocks until it completes. Callers from
// independent goroutines thereby share the pool's fixed concurrency: with k
// workers at most k Do bodies execute at once.
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
			c.err = AsPanicError(r)
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

// Striper is the body of a HostStripes loop: Stripe runs rows [lo, hi) as
// stripe s. Stripes run at once on different goroutines, so each writes only
// its own rows and slot s of any per-stripe result.
type Striper interface {
	Stripe(s, lo, hi int)
}

// StripeGrain is the fewest pixels a HostStripes stripe covers. Below it the
// hand-off to a helper and the join cost more than the helper saves: on a
// 2-vCPU host two stripes of ENH break even at 2 x 8,192 pixels, and RDG's
// at about half that (EXPERIMENTS.md, "Real-core striping").
const StripeGrain = 8192

// HostStripes runs striped loops on its caller and k-1 helper goroutines
// that live until Close, so a call creates no goroutine, closure, slice or
// WaitGroup. It serves one call at a time: a call that finds another in
// flight runs inline, as does every call after Close and every call on a nil
// *HostStripes. Between calls the first helper can run one background job
// (Go).
type HostStripes struct {
	k      int
	busy   atomic.Bool     // set by the call in flight
	start  []chan struct{} // unbuffered hand-off of stripe i+1 to helper i
	jobs   chan func()     // unbuffered hand-off of a background job to the first helper
	quit   chan struct{}
	close  sync.Once
	exited sync.WaitGroup // the helpers
	done   sync.WaitGroup // the stripes of the call in flight
	box    panicBox
	// job is held from the hand-off of a background job until it returns:
	// a join locks and unlocks it (a Mutex may be unlocked by a goroutine
	// other than the one that locked it).
	job    sync.Mutex
	jobBox panicBox

	// The call in flight, published to the helpers by the hand-off.
	n, stripes int
	body       Striper
}

// NewHostStripes starts the k-1 helpers of a k-stripe HostStripes.
func NewHostStripes(k int) *HostStripes {
	h := &HostStripes{k: max(k, 1), jobs: make(chan func()), quit: make(chan struct{})}
	h.start = make([]chan struct{}, h.k-1)
	h.exited.Add(h.k - 1)
	for i := range h.start {
		h.start[i] = make(chan struct{})
		go h.helper(i+1, h.start[i])
	}
	return h
}

// K returns the most stripes a call splits into: 1 for a nil *HostStripes.
func (h *HostStripes) K() int {
	if h == nil {
		return 1
	}
	return h.k
}

func (h *HostStripes) helper(s int, start <-chan struct{}) {
	defer h.exited.Done()
	var jobs <-chan func() // nil, never ready, on all but the first helper
	if s == 1 {
		jobs = h.jobs
	}
	for {
		select {
		case <-start:
			h.runStripe(s)
		case job := <-jobs:
			h.runJob(job)
		case <-h.quit:
			return
		}
	}
}

// runStripe runs stripe s of the call in flight and settles it in the join.
func (h *HostStripes) runStripe(s int) {
	defer h.box.settle(&h.done)
	h.body.Stripe(s, s*h.n/h.stripes, (s+1)*h.n/h.stripes)
}

// Run splits rows [0, n), cols pixels each, into at most k contiguous
// stripes of at least StripeGrain pixels, runs stripe 0 on the caller and
// the others on the helpers, and returns when every stripe has. A stripe
// panic re-panics on the caller as a *PanicError once all stripes are done.
// Run first joins the background job, if one is pending (Wait).
func (h *HostStripes) Run(n, cols int, body Striper) {
	stripes := 1
	if h != nil {
		stripes = min(h.k, n*cols/StripeGrain)
	}
	h.Wait()
	if stripes <= 1 || !h.busy.CompareAndSwap(false, true) {
		body.Stripe(0, 0, n)
		return
	}
	defer h.busy.Store(false)
	h.n, h.stripes, h.body = n, stripes, body
	h.done.Add(stripes)
	for s := 1; s < stripes; s++ {
		select {
		case h.start[s-1] <- struct{}{}:
		case <-h.quit:
			h.runStripe(s)
		}
	}
	h.runStripe(0)
	h.done.Wait()
	h.body = nil
	h.box.rethrow()
}

// Go runs job on the first helper and returns at once; the next Run, Wait or
// Close joins it. Like a stripe it is inline — run before Go returns — on a
// nil, one-stripe or closed HostStripes and when another call is in flight.
// A job handed to the helper that panics re-panics as a *PanicError at the
// join that finds it (Close leaves it to the next). Go allocates nothing;
// job should be a func value made once.
func (h *HostStripes) Go(job func()) {
	if h.K() < 2 || !h.busy.CompareAndSwap(false, true) {
		job()
		return
	}
	defer h.busy.Store(false)
	h.Wait()
	h.job.Lock()
	select {
	case h.jobs <- job:
	case <-h.quit:
		h.runJob(job)
	}
}

// runJob runs a background job and settles it, its panic first, in the join.
func (h *HostStripes) runJob(job func()) {
	defer h.settleJob()
	job()
}

func (h *HostStripes) settleJob() {
	h.jobBox.capture(recover())
	h.job.Unlock()
}

// Wait joins the background job, if one is pending: it returns once the job
// has, blocking rather than spinning, and re-panics the job's panic as a
// *PanicError. Safe to call from any goroutine; a nil or one-stripe
// HostStripes runs its jobs inline and has none pending.
func (h *HostStripes) Wait() {
	if h.K() > 1 {
		h.job.Lock()
		h.job.Unlock()
		h.jobBox.rethrow()
	}
}

// Close stops the helpers and returns once they have exited, at most one
// stripe or background job later. It is safe to call more than once and
// concurrently with Run.
func (h *HostStripes) Close() {
	if h != nil {
		h.close.Do(func() { close(h.quit) })
		h.exited.Wait()
		h.job.Lock()
		h.job.Unlock()
	}
}
