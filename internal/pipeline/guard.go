package pipeline

import (
	"fmt"
	"runtime/debug"

	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/span"
	"triplec/internal/tasks"
)

// This file is the engine's fault boundary: every task invocation runs
// behind a panic guard that converts a crash into a typed *TaskError (the
// frame fails, the engine survives), an injectable pre-task hook lets the
// fault layer interpose deterministically, and a TaskGate (circuit breaker)
// can suppress an optional task whose failure rate tripped its circuit.

// TaskError is a panic recovered from a task execution, converted to an
// error so one poisoned frame cannot take down the stream (let alone the
// process). Task names the task that was executing, Frame the frame index.
type TaskError struct {
	Task  tasks.Name
	Frame int
	Cause any    // the recovered panic value
	Stack []byte // stack of the panicking goroutine
}

func (e *TaskError) Error() string {
	return fmt.Sprintf("pipeline: task %s panicked at frame %d: %v", e.Task, e.Frame, e.Cause)
}

// TaskGate decides per frame whether an optional task may run — the shape
// of fault.Breaker, declared here so the pipeline does not depend on the
// fault package. Allow is consulted before gated tasks only (RDG variants,
// GW_EXT, ZOOM: the tasks the flow graph stays well-formed without); Record
// feeds their outcomes back.
type TaskGate interface {
	Allow(task tasks.Name) bool
	Record(task tasks.Name, ok bool)
}

// gatedTask reports whether a task is optional enough to be suppressed by
// an open circuit (the task table's Optional column).
func gatedTask(name tasks.Name) bool {
	s, _ := tasks.SpecOf(name)
	return s.Optional
}

// SetTaskHook installs a hook invoked immediately before every task
// execution with the task name and frame index — the fault injector's
// interposition point. The hook runs on the processing goroutine and may
// panic (the guard converts it to a *TaskError attributed to that task).
// A nil fn removes the hook. Same single-goroutine contract as Process.
func (e *Engine) SetTaskHook(fn func(task tasks.Name, frameIdx int)) { e.hook = fn }

// SetGate installs a circuit-breaker gate over the optional tasks. A nil
// gate removes it. Same single-goroutine contract as Process.
func (e *Engine) SetGate(g TaskGate) { e.gate = g }

// SetSpanBuilder installs the per-frame span staging buffer the engine
// records task boundaries into (BeginFrame on Process entry, task spans in
// enter/charge, suppression instants, AbortFrame on panic unwind). The
// serving layer owns the builder and commits or abandons the staged frame
// after Process returns. A nil builder removes it; every recording call is
// nil-safe and allocation-free. Same single-goroutine contract as Process.
func (e *Engine) SetSpanBuilder(b *span.FrameBuilder) { e.spans = b }

// SpanBuilder returns the installed span staging buffer, if any.
func (e *Engine) SpanBuilder() *span.FrameBuilder { return e.spans }

// SetQuality sets the engine's quality level; Process suppresses the tasks
// the level sheds (see Quality). Same single-goroutine contract as Process.
func (e *Engine) SetQuality(q Quality) {
	if q < QualityFull {
		q = QualityFull
	}
	if q > QualityMax {
		q = QualityMax
	}
	e.quality = q
}

// Quality returns the engine's current quality level.
func (e *Engine) Quality() Quality { return e.quality }

// enter marks a task as executing (for panic attribution), opens its span
// (before the hook, so an injected panic aborts an attributed open span),
// and fires the pre-task hook. The hook call is serialized across the two
// pipeline halves in pipelined mode (see callHook), so a stateful injector
// observes one task at a time exactly as under serial execution.
func (e *Engine) enter(fx *frameExec, name tasks.Name) {
	fx.inTask = name
	e.spans.BeginTask(tasks.IndexOf(name))
	if e.hook != nil {
		e.callHook(name, fx.rep.Index)
	}
}

// callHook fires the pre-task hook, holding hookMu in pipelined mode so
// hooks from the overlapping front and back halves never interleave.
func (e *Engine) callHook(name tasks.Name, frameIdx int) {
	if e.lockHooks {
		e.hookMu.Lock()
		defer e.hookMu.Unlock()
	}
	e.hook(name, frameIdx)
}

// recordGate feeds one task outcome to the gate under the same
// serialization as callHook.
func (e *Engine) recordGate(name tasks.Name, ok bool) {
	if e.lockHooks {
		e.hookMu.Lock()
		defer e.hookMu.Unlock()
	}
	e.gate.Record(name, ok)
}

// gateAllows consults the gate under the same serialization as callHook.
func (e *Engine) gateAllows(name tasks.Name) bool {
	if e.lockHooks {
		e.hookMu.Lock()
		defer e.hookMu.Unlock()
	}
	return e.gate.Allow(name)
}

// allowTask merges quality shedding and the breaker gate for one optional
// task; a suppressed task is recorded on the report.
func (e *Engine) allowTask(fx *frameExec, name tasks.Name) bool {
	if e.quality.Sheds(name) {
		fx.rep.Suppressed = append(fx.rep.Suppressed, name)
		e.spans.Suppressed(tasks.IndexOf(name))
		return false
	}
	if e.gate != nil && gatedTask(name) && !e.gateAllows(name) {
		fx.rep.Suppressed = append(fx.rep.Suppressed, name)
		e.spans.Suppressed(tasks.IndexOf(name))
		return false
	}
	return true
}

// recoverFrame is the engine's panic guard (deferred by Process, invoked
// explicitly by the pipelined executor after the window drains): it converts
// the panic to a *TaskError, feeds the failure to the gate, and resets the
// inter-frame state (the panic may have left it half-updated, so the
// temporal stack is invalidated exactly like a failed registration). The
// frame counter is NOT advanced here — begin already consumed the frame's
// index.
func (e *Engine) recoverFrame(fx *frameExec, r any, rep *Report, err *error) {
	failed := fx.inTask
	te := &TaskError{Task: failed, Frame: fx.rep.Index, Cause: r}
	if pe, ok := r.(*parallel.PanicError); ok {
		te.Cause, te.Stack = pe.Value, pe.Stack
	} else {
		te.Stack = debug.Stack()
	}
	if e.gate != nil && gatedTask(failed) {
		e.recordGate(failed, false)
	}
	e.spans.AbortFrame()
	*rep = Report{}
	*err = te
	e.prevFrame = nil
	e.prevCouple = nil
	e.prevROI = frame.Rect{}
	e.enh.Reset()
	fx.inTask = ""
}
