package parallel

import (
	"errors"
	"sync"
	"sync/atomic"
)

// Batch and queue helpers no program runs, and the pool probes tests read,
// kept with the tests that pin their behaviour.

// Map applies fn to every index of [0, n) using up to k workers pulling
// from a shared queue (good for unevenly sized items where static striping
// would load-imbalance).
func Map(n, k int, fn func(i int)) {
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
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	// Lock-free work counter: workers claim indices with a single atomic
	// increment, so the shared queue adds no mutex contention even when
	// several streams drive pools on the same host.
	var next atomic.Int64
	var box panicBox
	var wg sync.WaitGroup
	wg.Add(k)
	for w := 0; w < k; w++ {
		go func() {
			defer wg.Done()
			defer func() { box.capture(recover()) }()
			for {
				i := next.Add(1) - 1
				if i >= int64(n) {
					return
				}
				fn(int(i))
			}
		}()
	}
	wg.Wait()
	box.rethrow()
}

// Panics returns how many jobs panicked inside the pool so far.
func (p *Pool) Panics() uint64 { return p.panics.Load() }

// SubmitBatch queues every job in one accounting step: a single lock
// acquisition and a single wg.Add for the whole batch, instead of per-job
// lock traffic. The channel sends happen after the lock is released — the
// wg.Add performed under the lock keeps Close from closing the jobs channel
// before the sends land (Close waits for the in-flight count to drain, which
// cannot happen until every batched job has been sent and executed). The
// batch is rejected atomically: either all jobs are queued or none.
func (p *Pool) SubmitBatch(jobs []func()) error {
	for _, j := range jobs {
		if j == nil {
			return errors.New("parallel: nil job in batch")
		}
	}
	if len(jobs) == 0 {
		return nil
	}
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return errors.New("parallel: pool closed")
	}
	p.wg.Add(len(jobs))
	p.mu.Unlock()
	for _, j := range jobs {
		p.jobs <- j
	}
	return nil
}

// DoBatch runs every job on the pool's workers and blocks until all of them
// complete, like a multi-job Do: the batch is submitted with one accounting
// step (SubmitBatch) and the first panic among the jobs is returned as a
// *PanicError after every job has finished.
func (p *Pool) DoBatch(jobs []func()) error {
	if len(jobs) == 0 {
		return nil
	}
	for _, j := range jobs {
		if j == nil {
			return errors.New("parallel: nil job in batch")
		}
	}
	var box panicBox
	var done sync.WaitGroup
	done.Add(len(jobs))
	wrapped := make([]func(), len(jobs))
	for i, j := range jobs {
		j := j
		wrapped[i] = func() {
			defer done.Done()
			defer func() { box.capture(recover()) }()
			j()
		}
	}
	if err := p.SubmitBatch(wrapped); err != nil {
		return err
	}
	done.Wait()
	if box.err != nil {
		return box.err
	}
	return nil
}

// Wait blocks until every job submitted so far has finished.
func (p *Pool) Wait() { p.wg.Wait() }
