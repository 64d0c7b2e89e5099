package stream

import (
	"triplec/internal/core"
	"triplec/internal/flowgraph"
	"triplec/internal/pipeline"
	"triplec/internal/span"
	"triplec/internal/tasks"
)

// This file threads the span/flight-recorder layer through the serving
// loop. Each stream's serving goroutine owns one span.FrameBuilder bound
// to its current engine; the builder is committed (or abandoned) by the
// serving layer after every frame, and replaced together with the engine
// after a stall — a poisoned engine's leaked goroutine may still write
// into the old builder, so that builder is never committed again (the
// same ownership rule the Engine concurrency contract imposes).

// spanMeta builds the dump-time label tables from the stream set and the
// fixed task/scenario/quality universes.
func spanMeta(streams []Config) span.Meta {
	m := span.Meta{
		Streams:   make([]string, len(streams)),
		Tasks:     make([]string, tasks.NumNames),
		Scenarios: make([]string, 8),
		Qualities: make([]string, int(pipeline.QualityMax)+1),
		Predictor: core.BackendBaseline,
	}
	for i, sc := range streams {
		m.Streams[i] = streamLabel(sc, i)
	}
	for i, tn := range tasks.AllNames() {
		m.Tasks[i] = string(tn)
	}
	for i := range m.Scenarios {
		m.Scenarios[i] = flowgraph.FromIndex(i).String()
	}
	for q := range m.Qualities {
		m.Qualities[q] = pipeline.Quality(q).String()
	}
	return m
}

// attachSpans binds a fresh frame builder to the runner's current engine.
// Called at stream start and again after every supervisor rebuild.
func (r *runner) attachSpans() {
	if r.cfg.Flight == nil {
		return
	}
	r.fr = r.cfg.Flight
	r.fb = span.NewFrameBuilder(r.fr.Recorder(), int32(r.si))
	r.eng.SetSpanBuilder(r.fb)
}

// spanInstant emits one frame-lifecycle instant for this stream.
func (r *runner) spanInstant(kind span.Kind, frame int) {
	if r.fr == nil {
		return
	}
	r.fr.Recorder().Emit(span.Event{
		Kind: kind, Stream: int32(r.si), Frame: int32(frame), Task: -1, Scenario: -1,
	})
}

// spanFrame records the resolved frame: an instant for a skip or an
// abandon, the frame root for every frame that entered the pipeline, and the
// deadline, prediction or panic outcome for the trigger engine. An abandoned
// frame's late goroutine has finished by now (runProcess waited for it), so
// the builder is safely ours again; a stalled one was orphaned by spanStall
// and commits nothing. Allocation-free.
func (r *runner) spanFrame(o *outcome) {
	if r.fr == nil {
		return
	}
	switch o.kind {
	case outSkipped:
		r.spanInstant(span.KindSkip, o.frame)
		return
	case outAbandoned:
		r.spanInstant(span.KindAbandon, o.frame)
	}
	r.fb.Commit(o.frame, o.scenario, o.quality, o.kind, o.cores, o.predictedMs, o.latencyMs, r.mgr.BudgetMs)
	if o.kind == outProcessed {
		r.fr.ObserveFrame(r.si, o.frame, o.missed, o.predictedMs, o.latencyMs)
	} else if o.panicked {
		r.fr.ObservePanic(r.si, o.frame)
	}
}

// spanStall records an engine poisoning and orphans the builder: the
// stalled goroutine may still be writing into it, so it must never be
// committed. The supervisor's rebuild attaches a fresh one.
func (r *runner) spanStall(i int) {
	if r.fr == nil {
		return
	}
	r.spanInstant(span.KindStall, i)
	r.fb = nil
}

// spanRestart records a supervisor restart of the serving loop.
func (r *runner) spanRestart(failedAt int) { r.spanInstant(span.KindRestart, failedAt) }

// spanQuarantine records the stream's retirement and arms the quarantine
// trigger (the dump flushes at end of run if no more frames arrive).
func (r *runner) spanQuarantine() {
	if r.fr == nil {
		return
	}
	r.spanInstant(span.KindQuarantine, -1)
	r.fr.ObserveQuarantine(r.si, -1)
}

// spanDegrade records a quality-ladder transition.
func (r *runner) spanDegrade(from, to pipeline.Quality) {
	if r.fr == nil {
		return
	}
	r.fr.Recorder().Emit(span.Event{
		Kind: span.KindDegrade, Stream: int32(r.si), Frame: -1, Task: -1, Scenario: -1,
		Quality: int32(to), Arg0: float64(from),
	})
}
