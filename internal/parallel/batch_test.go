package parallel

import (
	"strings"
	"sync/atomic"
	"testing"
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
