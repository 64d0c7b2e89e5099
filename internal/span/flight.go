package span

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// TriggerReason classifies why a flight-recorder dump was taken
// (Event.Outcome on KindTrigger instants).
type TriggerReason int32

// Trigger reasons.
const (
	TriggerDeadlineMiss TriggerReason = iota
	TriggerRelErr
	TriggerTaskPanic
	TriggerQuarantine
	TriggerManual
)

// ReasonName renders a trigger reason.
func ReasonName(r TriggerReason) string {
	switch r {
	case TriggerDeadlineMiss:
		return "deadline_miss"
	case TriggerRelErr:
		return "prediction_relerr"
	case TriggerTaskPanic:
		return "task_panic"
	case TriggerQuarantine:
		return "quarantine"
	case TriggerManual:
		return "manual"
	}
	return "unknown"
}

// TriggerConfig tunes what arms a flight-recorder dump. The deadline-miss,
// task-panic and quarantine triggers are always armed.
type TriggerConfig struct {
	// RelErr arms the prediction relative-error trigger when > 0:
	// |predicted-actual|/actual past this fires a dump.
	RelErr float64
}

// DefaultTriggers arms every trigger: the configuration `triplec serve
// -trace-dir` and the chaos harness use.
func DefaultTriggers() TriggerConfig {
	return TriggerConfig{RelErr: 0.75}
}

// The flight recorder's capture windows.
const (
	// afterFrames is how many more frames (across all streams) are
	// recorded after a trigger before the ring is snapshotted.
	afterFrames = 12
	// cooldownFrames suppresses re-triggering for this many frames after a
	// dump is armed; triggers inside the window are coalesced into the
	// pending dump.
	cooldownFrames = 128
	// maxDumps caps dumps per recorder lifetime.
	maxDumps = 16
)

// DumpInfo describes one written flight-recorder dump.
type DumpInfo struct {
	File      string    `json:"file"`
	Reason    string    `json:"reason"`
	Stream    int       `json:"stream"`
	Frame     int       `json:"frame"`
	Detail    float64   `json:"detail"`
	Events    int       `json:"events"`
	Frames    int       `json:"frames"`
	Coalesced int       `json:"coalesced"`
	WrittenAt time.Time `json:"written_at"`
}

type pendingDump struct {
	reason    TriggerReason
	stream    int32
	frame     int32
	detail    float64
	dueFrame  uint64
	coalesced int
}

// FlightRecorder couples a span Recorder to a trigger engine: frames keep
// streaming into the always-on ring, and when an armed condition fires the
// recorder waits afterFrames more committed frames, then snapshots the
// ring into a Chrome trace-event JSON dump under its directory. Nil-safe
// throughout; trigger observation is allocation-free on the no-fire path.
type FlightRecorder struct {
	rec *Recorder
	dir string
	cfg TriggerConfig

	armed atomic.Bool // a pending dump exists (fast path for frame hook)

	mu        sync.Mutex
	pending   *pendingDump
	lastArmed uint64 // frames count when the last dump was armed
	seq       int
	dumps     []DumpInfo
	writeErr  error
}

// NewFlightRecorder builds a flight recorder writing dumps into dir
// (created if missing) with its own ring recorder.
func NewFlightRecorder(dir string, cfg TriggerConfig) (*FlightRecorder, error) {
	if dir == "" {
		return nil, fmt.Errorf("span: flight recorder needs a dump directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("span: create dump dir: %w", err)
	}
	fr := &FlightRecorder{rec: NewRecorder(DefaultRingEvents), dir: dir, cfg: cfg}
	fr.rec.onFrame = fr.frameCommitted
	return fr, nil
}

// Recorder returns the underlying span ring (never nil on a non-nil
// flight recorder).
func (fr *FlightRecorder) Recorder() *Recorder {
	if fr == nil {
		return nil
	}
	return fr.rec
}

// Dir returns the dump directory.
func (fr *FlightRecorder) Dir() string {
	if fr == nil {
		return ""
	}
	return fr.dir
}

// SetMeta installs the label tables on the underlying recorder.
func (fr *FlightRecorder) SetMeta(m Meta) { fr.Recorder().SetMeta(m) }

// ObserveFrame feeds one committed frame's deadline and prediction
// outcome to the trigger engine. Call it after FrameBuilder.Commit.
func (fr *FlightRecorder) ObserveFrame(stream, frame int, missed bool, predictedMs, actualMs float64) {
	if fr == nil {
		return
	}
	if missed {
		fr.trigger(TriggerDeadlineMiss, int32(stream), int32(frame), actualMs)
		return
	}
	if fr.cfg.RelErr > 0 && actualMs > 0 && predictedMs > 0 {
		rel := (predictedMs - actualMs) / actualMs
		if rel < 0 {
			rel = -rel
		}
		if rel > fr.cfg.RelErr {
			fr.trigger(TriggerRelErr, int32(stream), int32(frame), rel)
		}
	}
}

// ArmedDumpSeq returns the sequence number the currently pending dump
// will be written under (the N in trace-NNNN-reason.json), or -1 when no
// dump is armed. Metric exemplars use it to link a histogram bucket to
// the dump that will explain it.
func (fr *FlightRecorder) ArmedDumpSeq() int {
	if fr == nil || !fr.armed.Load() {
		return -1
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if fr.pending == nil {
		return -1
	}
	return fr.seq
}

// ObservePanic feeds a task-panic frame to the trigger engine.
func (fr *FlightRecorder) ObservePanic(stream, frame int) {
	if fr == nil {
		return
	}
	fr.trigger(TriggerTaskPanic, int32(stream), int32(frame), 0)
}

// ObserveQuarantine feeds a stream quarantine to the trigger engine.
func (fr *FlightRecorder) ObserveQuarantine(stream, frame int) {
	if fr == nil {
		return
	}
	fr.trigger(TriggerQuarantine, int32(stream), int32(frame), 0)
}

// trigger arms (or coalesces into) a pending dump and emits a KindTrigger
// instant so the cause is visible inside the dump itself.
func (fr *FlightRecorder) trigger(reason TriggerReason, stream, frame int32, detail float64) {
	fr.mu.Lock()
	if fr.pending != nil {
		fr.pending.coalesced++
		fr.mu.Unlock()
		return
	}
	frames := fr.rec.FramesCommitted()
	if len(fr.dumps) >= maxDumps ||
		(fr.lastArmed > 0 && frames < fr.lastArmed+cooldownFrames) {
		fr.mu.Unlock()
		return
	}
	fr.pending = &pendingDump{
		reason:   reason,
		stream:   stream,
		frame:    frame,
		detail:   detail,
		dueFrame: frames + afterFrames,
	}
	fr.lastArmed = frames
	fr.armed.Store(true)
	fr.mu.Unlock()

	fr.rec.Emit(Event{
		Kind:    KindTrigger,
		Stream:  stream,
		Frame:   frame,
		Task:    -1,
		Outcome: int32(reason),
		Arg0:    detail,
	})
}

// frameCommitted is the recorder's per-frame hook: once the pending dump's
// after-window elapses, snapshot and write. The disarmed fast path is one
// atomic load.
func (fr *FlightRecorder) frameCommitted(frames uint64) {
	if !fr.armed.Load() {
		return
	}
	fr.mu.Lock()
	p := fr.pending
	if p == nil || frames < p.dueFrame {
		fr.mu.Unlock()
		return
	}
	fr.pending = nil
	fr.armed.Store(false)
	fr.writeLocked(p)
	fr.mu.Unlock()
}

// Flush force-writes any pending dump regardless of its after-window (end
// of run: the remaining frames will never arrive) and returns the first
// write error the recorder hit, if any.
func (fr *FlightRecorder) Flush() error {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	if p := fr.pending; p != nil {
		fr.pending = nil
		fr.armed.Store(false)
		fr.writeLocked(p)
	}
	return fr.writeErr
}

// writeLocked snapshots the ring and writes one dump file. Called with
// fr.mu held; the snapshot itself takes the ring mutex, which is never
// held while acquiring fr.mu, so lock order is safe.
func (fr *FlightRecorder) writeLocked(p *pendingDump) {
	events := fr.rec.Snapshot()
	frames := 0
	for i := range events {
		if events[i].Kind == KindFrame {
			frames++
		}
	}
	name := fmt.Sprintf("trace-%04d-%s.json", fr.seq, ReasonName(p.reason))
	fr.seq++
	path := filepath.Join(fr.dir, name)
	f, err := os.Create(path)
	if err == nil {
		err = WriteDump(f, fr.rec.Meta(), events, dumpHeader{
			Reason: ReasonName(p.reason), Stream: int(p.stream), Frame: int(p.frame),
			Detail: p.detail, Coalesced: p.coalesced,
		})
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		if fr.writeErr == nil {
			fr.writeErr = err
		}
		return
	}
	fr.dumps = append(fr.dumps, DumpInfo{
		File:      name,
		Reason:    ReasonName(p.reason),
		Stream:    int(p.stream),
		Frame:     int(p.frame),
		Detail:    p.detail,
		Events:    len(events),
		Frames:    frames,
		Coalesced: p.coalesced,
		WrittenAt: time.Now(),
	})
}

// Dumps returns the dumps written so far, oldest first.
func (fr *FlightRecorder) Dumps() []DumpInfo {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	out := make([]DumpInfo, len(fr.dumps))
	copy(out, fr.dumps)
	return out
}

// Err returns the first dump-write error, if any.
func (fr *FlightRecorder) Err() error {
	if fr == nil {
		return nil
	}
	fr.mu.Lock()
	defer fr.mu.Unlock()
	return fr.writeErr
}
