package span

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
)

// Chrome trace-event JSON (the "JSON Object Format" Perfetto and
// chrome://tracing load): a traceEvents array of complete spans (ph "X",
// ts/dur in microseconds), instants (ph "i") and metadata records (ph
// "M"), keyed by pid/tid. We map one stream to one pid (stream+1, pid 0
// reserved for global events) and carry every domain field in args so the
// reader — and a human in the Perfetto UI — can recover frame, task,
// scenario, quality and predicted-vs-actual timing per span.

type traceEvent struct {
	Name  string         `json:"name"`
	Ph    string         `json:"ph"`
	Cat   string         `json:"cat,omitempty"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Ts    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData,omitempty"`
	TraceEvents     []traceEvent   `json:"traceEvents"`
}

type dumpHeader struct {
	Reason    string
	Stream    int
	Frame     int
	Detail    float64
	Coalesced int
}

func usec(ns int64) float64 { return float64(ns) / 1e3 }

// appendUsec appends ns in microseconds as appendFloat(usec(ns)) does. For
// 0 ≤ ns < 2⁵⁰ that is ns/1000 with at most three fractional digits,
// trailing zeros trimmed: the decimal rounds to usec(ns), and any other
// decimal as short lies at least 0.001 away, beyond half its ulp.
func appendUsec(b []byte, ns int64) []byte {
	if ns < 0 || ns >= 1<<50 {
		b, _ = appendFloat(b, usec(ns)) // an int64's microseconds are finite
		return b
	}
	b = strconv.AppendInt(b, ns/1000, 10)
	frac := ns % 1000
	if frac == 0 {
		return b
	}
	digits := [3]byte{byte('0' + frac/100), byte('0' + frac/10%10), byte('0' + frac%10)}
	n := 3
	for digits[n-1] == '0' {
		n--
	}
	b = append(b, '.')
	return append(b, digits[:n]...)
}

func pidOf(stream int32) int { return int(stream) + 1 } // -1 (global) -> 0

// dumpBufBytes is the dump writer's fixed buffer: events are appended to it
// and it drains to the file as it fills, so a dump's memory does not grow
// with the ring. eventRoom is the space an event is given before it is
// appended (the longest, a frame span, is ~300 bytes plus its labels).
const (
	dumpBufBytes = 64 << 10
	eventRoom    = 2 << 10
)

// WriteDump renders a ring snapshot as Chrome trace-event JSON, byte for
// byte what encoding/json makes of the traceFile/traceEvent structs above
// (fields in declaration order, args keys sorted, its float formatting and
// string escaping, a trailing newline) without building them: every event is
// appended straight into a fixed buffer. Non-finite values are an error, as
// they are for encoding/json; by then part of the dump may have been written.
func WriteDump(w io.Writer, meta Meta, events []Event, hdr dumpHeader) error {
	// The once-per-dump parts go through encoding/json: the header (a
	// struct whose fields are the otherData keys in sorted order) and the
	// label tables, quoted once here and spliced into every event that names
	// one.
	other, err := json.Marshal(struct {
		Coalesced int     `json:"coalesced"`
		Detail    float64 `json:"detail"`
		Format    string  `json:"format"`
		Frame     int     `json:"frame"`
		Predictor string  `json:"predictor"`
		Promotion string  `json:"promotion"`
		Reason    string  `json:"reason"`
		Stream    int     `json:"stream"`
	}{hdr.Coalesced, hdr.Detail, "triplec-flight-recorder-v1", hdr.Frame, meta.Predictor, meta.Promotion, hdr.Reason, hdr.Stream})
	if err != nil {
		return err
	}
	enc := dumpEncoder{}
	if err := enc.quoteLabels(&meta); err != nil {
		return err
	}

	bw := bufio.NewWriterSize(w, dumpBufBytes)
	b := bw.AvailableBuffer()
	b = append(b, `{"displayTimeUnit":"ms","otherData":`...)
	b = append(b, other...)
	b = append(b, `,"traceEvents":[{"name":"process_name","ph":"M","pid":0,"tid":0,"ts":0,"args":{"name":"global"}}`...)
	bw.Write(b)
	// Process-name metadata: one per stream after the global pseudo-process.
	for i := range meta.Streams {
		b = bw.AvailableBuffer()
		b = append(b, `,{"name":"process_name","ph":"M","pid":`...)
		b = strconv.AppendInt(b, int64(i+1), 10)
		b = append(b, `,"tid":0,"ts":0,"args":{"name":`...)
		b = append(b, enc.streams[i]...)
		b = append(b, "}}"...)
		bw.Write(b)
	}
	for i := range events {
		if bw.Available() < eventRoom {
			if err := bw.Flush(); err != nil {
				return err
			}
		}
		b, err := enc.appendEvent(append(bw.AvailableBuffer(), ','), &events[i])
		if err != nil {
			return fmt.Errorf("span: event %d: %w", i, err)
		}
		bw.Write(b)
	}
	bw.WriteString("]}\n")
	return bw.Flush() // reports the first write error, if any
}

// dumpEncoder holds a dump's label tables as quoted JSON strings.
type dumpEncoder struct {
	streams, tasks, scenarios, qualities [][]byte
}

// quoteLabels quotes every label of the meta tables with one json.Marshal
// and cuts the result back into its elements.
func (e *dumpEncoder) quoteLabels(meta *Meta) error {
	tables := [...][]string{meta.Streams, meta.Tasks, meta.Scenarios, meta.Qualities}
	n := 0
	for _, t := range tables {
		n += len(t)
	}
	all := make([]string, 0, n)
	for _, t := range tables {
		all = append(all, t...)
	}
	quoted, err := json.Marshal(all)
	if err != nil {
		return err
	}
	// quoted is ["a","b",...]: an element ends at the first quote that no
	// backslash escapes.
	elems := make([][]byte, 0, n)
	for i := 1; len(elems) < n; i++ { // i is at an element's opening quote
		j := i + 1
		for quoted[j] != '"' {
			if quoted[j] == '\\' {
				j++
			}
			j++
		}
		elems = append(elems, quoted[i:j+1])
		i = j + 1 // the separating comma (or the closing bracket)
	}
	for i, dst := range [...]*[][]byte{&e.streams, &e.tasks, &e.scenarios, &e.qualities} {
		*dst, elems = elems[:len(tables[i])], elems[len(tables[i]):]
	}
	return nil
}

// appendLabel appends entry i of a quoted label table: the label itself, the
// generic prefix+id past the table's end (ASCII, nothing to escape), or the
// empty string for a negative ("not applicable") id.
func appendLabel(b []byte, quoted [][]byte, i int, prefix string) []byte {
	if i >= 0 && i < len(quoted) {
		return append(b, quoted[i]...)
	}
	b = append(b, '"')
	if i >= 0 {
		b = append(b, prefix...)
		b = strconv.AppendInt(b, int64(i), 10)
	}
	return append(b, '"')
}

// appendFloat appends f the way encoding/json formats a float64.
func appendFloat(b []byte, f float64) ([]byte, error) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, fmt.Errorf("unsupported value: %v", f)
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// clean up e-09 to e-9
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b, nil
}

// appendEvent appends one ring event as a trace event object.
func (e *dumpEncoder) appendEvent(b []byte, ev *Event) ([]byte, error) {
	var ph, cat, scope string
	tid := 0
	switch ev.Kind {
	case KindFrame:
		ph, cat = "X", "frame"
	case KindTask:
		ph, cat, tid = "X", "task", 1
	case KindRebalance:
		ph, cat, scope = "i", "sched", "g"
	case KindDegrade, KindSuppressed:
		ph, cat, scope = "i", "quality", "p"
	case KindFault, KindBreakerTrip:
		ph, cat, scope = "i", "fault", "p"
	case KindScenarioMiss:
		ph, cat, scope = "i", "predict", "p"
	case KindTrigger:
		ph, cat, scope = "i", "flightrec", "g"
	case KindPromote:
		ph, cat, scope = "i", "promote", "g"
	default: // skip, abandon, stall, restart, quarantine
		ph, cat, scope = "i", "lifecycle", "p"
	}

	b = append(b, `{"name":`...)
	switch ev.Kind {
	case KindFrame:
		b = append(b, `"frame `...)
		if ev.Frame >= 0 { // a negative index has always rendered as "frame "
			b = strconv.AppendInt(b, int64(ev.Frame), 10)
		}
		b = append(b, '"')
	case KindTask:
		b = appendLabel(b, e.tasks, int(ev.Task), "task")
	case KindFault:
		b = appendQuoted(b, "fault:", FaultName(int(ev.Arg0)))
	case KindTrigger:
		b = appendQuoted(b, "trigger:", ReasonName(TriggerReason(ev.Outcome)))
	case KindPromote:
		b = appendQuoted(b, "promote:", PromoteStateName(ev.Outcome))
	default:
		b = appendQuoted(b, "", KindName(ev.Kind))
	}
	b = append(b, `,"ph":"`...)
	b = append(b, ph...)
	b = append(b, `","cat":"`...)
	b = append(b, cat...)
	b = append(b, `","pid":`...)
	b = strconv.AppendInt(b, int64(pidOf(ev.Stream)), 10)
	b = append(b, `,"tid":`...)
	b = strconv.AppendInt(b, int64(tid), 10)
	b = append(b, `,"ts":`...)
	b = appendUsec(b, ev.StartNs)
	if scope == "" && ev.DurNs != 0 {
		b = append(b, `,"dur":`...)
		b = appendUsec(b, ev.DurNs)
	}
	if scope != "" {
		b = append(b, `,"s":"`...)
		b = append(b, scope...)
		b = append(b, '"')
	}

	// args, keys in sorted order.
	a := argsAppender{b: append(b, `,"args":{`...)}
	frame := int64(ev.Frame)
	switch ev.Kind {
	case KindFrame:
		a.float("actual_ms", ev.Arg1)
		a.float("budget_ms", ev.Arg2)
		a.int("cores", int64(ev.Cores))
		a.int("frame", frame)
		a.str("outcome", OutcomeName(ev.Outcome))
		a.float("predicted_ms", ev.Arg0)
		a.label("quality", e.qualities, int(ev.Quality), "q")
		a.label("scenario", e.scenarios, int(ev.Scenario), "scenario")
	case KindTask:
		a.float("actual_ms", ev.Arg1)
		a.int("frame", frame)
		a.float("predicted_ms", ev.Arg0)
		a.label("quality", e.qualities, int(ev.Quality), "q")
		a.label("scenario", e.scenarios, int(ev.Scenario), "scenario")
		a.int("stripes", int64(ev.Cores))
		a.label("task", e.tasks, int(ev.Task), "task")
	case KindRebalance:
		a.budgets("after", ev.Pack1, ev.Cores)
		a.budgets("before", ev.Pack0, ev.Cores)
	case KindDegrade:
		a.int("frame", frame)
		a.label("from", e.qualities, int(ev.Arg0), "q")
		a.label("to", e.qualities, int(ev.Quality), "q")
	case KindFault:
		a.str("fault", FaultName(int(ev.Arg0)))
		a.int("frame", frame)
	case KindScenarioMiss:
		a.label("actual", e.scenarios, int(ev.Scenario), "scenario")
		a.int("frame", frame)
		a.label("predicted", e.scenarios, int(ev.Arg0), "scenario")
	case KindTrigger:
		a.float("detail", ev.Arg0)
		a.int("frame", frame)
		a.str("reason", ReasonName(TriggerReason(ev.Outcome)))
	case KindPromote:
		a.int("backend_slot", int64(int(ev.Arg1)))
		a.str("from", PromoteStateName(int32(ev.Arg0)))
		a.str("to", PromoteStateName(ev.Outcome))
	default: // breaker trip, suppressed and the lifecycle instants
		a.int("frame", frame)
	}
	switch ev.Kind {
	case KindFault, KindBreakerTrip, KindSuppressed:
		if ev.Task >= 0 {
			a.label("task", e.tasks, int(ev.Task), "task")
		}
	}
	return append(a.b, "}}"...), a.err
}

// appendQuoted appends prefix+s as a JSON string; both are fixed ASCII
// names that need no escaping.
func appendQuoted(b []byte, prefix, s string) []byte {
	b = append(b, '"')
	b = append(b, prefix...)
	b = append(b, s...)
	return append(b, '"')
}

// argsAppender appends "key":value members, comma-separated, keeping the
// first float error.
type argsAppender struct {
	b   []byte
	n   int
	err error
}

func (a *argsAppender) key(k string) {
	if a.n > 0 {
		a.b = append(a.b, ',')
	}
	a.n++
	a.b = append(a.b, '"')
	a.b = append(a.b, k...)
	a.b = append(a.b, '"', ':')
}

func (a *argsAppender) int(k string, v int64) {
	a.key(k)
	a.b = strconv.AppendInt(a.b, v, 10)
}

func (a *argsAppender) float(k string, v float64) {
	a.key(k)
	var err error
	if a.b, err = appendFloat(a.b, v); err != nil && a.err == nil {
		a.err = err
	}
}

func (a *argsAppender) str(k, v string) {
	a.key(k)
	a.b = appendQuoted(a.b, "", v)
}

func (a *argsAppender) label(k string, quoted [][]byte, i int, prefix string) {
	a.key(k)
	a.b = appendLabel(a.b, quoted, i, prefix)
}

// budgets appends UnpackBudgets(p, n) as an array.
func (a *argsAppender) budgets(k string, p uint64, n int32) {
	a.key(k)
	a.b = append(a.b, '[')
	for i := int32(0); i < n && i < 8; i++ {
		if i > 0 {
			a.b = append(a.b, ',')
		}
		a.b = strconv.AppendInt(a.b, int64((p>>(8*uint(i)))&0xff), 10)
	}
	a.b = append(a.b, ']')
}

// DumpTask is one task span recovered from a dump.
type DumpTask struct {
	Name        string
	StartUs     float64
	PredictedMs float64
	ActualMs    float64
	Stripes     int
	Scenario    string
	Quality     string
}

// DumpFrame is one frame root span with its child task spans.
type DumpFrame struct {
	Pid         int
	Process     string
	Frame       int
	StartUs     float64
	Scenario    string
	Quality     string
	Outcome     string
	PredictedMs float64
	ActualMs    float64
	BudgetMs    float64
	Cores       int
	Tasks       []DumpTask
}

// DumpInstant is one instant event recovered from a dump.
type DumpInstant struct {
	Name    string
	Pid     int
	Process string
	Frame   int
	TsUs    float64
}

// Dump is the parsed, validated form of a flight-recorder file.
type Dump struct {
	Reason    string
	Stream    int
	Frame     int
	Detail    float64
	Coalesced int
	Processes map[int]string
	Frames    []DumpFrame
	Instants  []DumpInstant
	// OrphanTasks counts task spans whose (pid, frame) matched no frame
	// root — ring wraparound truncating the oldest frame's children.
	OrphanTasks int
}

func argString(args map[string]any, key string) string {
	if s, ok := args[key].(string); ok {
		return s
	}
	return ""
}

func argFloat(args map[string]any, key string) float64 {
	if f, ok := args[key].(float64); ok {
		return f
	}
	return 0
}

func argInt(args map[string]any, key string) int {
	return int(argFloat(args, key))
}

// ReadDump parses and validates a flight-recorder file. It is the parsing
// core of `triplec trace` and the fuzz target: malformed input of any kind
// must come back as an error, never a panic.
func ReadDump(r io.Reader) (*Dump, error) {
	dec := json.NewDecoder(r)
	var tf traceFile
	if err := dec.Decode(&tf); err != nil {
		return nil, fmt.Errorf("span: decode dump: %w", err)
	}
	if tf.TraceEvents == nil {
		return nil, fmt.Errorf("span: dump has no traceEvents array")
	}

	d := &Dump{
		Reason:    argString(tf.OtherData, "reason"),
		Stream:    argInt(tf.OtherData, "stream"),
		Frame:     argInt(tf.OtherData, "frame"),
		Detail:    argFloat(tf.OtherData, "detail"),
		Coalesced: argInt(tf.OtherData, "coalesced"),
		Processes: map[int]string{},
	}

	type frameKey struct {
		pid, frame int
	}
	frames := map[frameKey]*DumpFrame{}
	var order []frameKey
	var tasks []struct {
		key frameKey
		t   DumpTask
	}

	for i := range tf.TraceEvents {
		te := &tf.TraceEvents[i]
		switch te.Ph {
		case "M":
			if te.Name == "process_name" {
				d.Processes[te.Pid] = argString(te.Args, "name")
			}
		case "X":
			if te.Name == "" {
				return nil, fmt.Errorf("span: event %d: complete span with empty name", i)
			}
			if !finiteNonNeg(te.Ts) || !finiteNonNeg(te.Dur) {
				return nil, fmt.Errorf("span: event %d (%s): bad ts/dur %v/%v", i, te.Name, te.Ts, te.Dur)
			}
			switch te.Cat {
			case "frame":
				key := frameKey{te.Pid, argInt(te.Args, "frame")}
				f := &DumpFrame{
					Pid:         te.Pid,
					Frame:       key.frame,
					StartUs:     te.Ts,
					Scenario:    argString(te.Args, "scenario"),
					Quality:     argString(te.Args, "quality"),
					Outcome:     argString(te.Args, "outcome"),
					PredictedMs: argFloat(te.Args, "predicted_ms"),
					ActualMs:    argFloat(te.Args, "actual_ms"),
					BudgetMs:    argFloat(te.Args, "budget_ms"),
					Cores:       argInt(te.Args, "cores"),
				}
				if _, dup := frames[key]; !dup {
					order = append(order, key)
				}
				frames[key] = f
			case "task":
				tasks = append(tasks, struct {
					key frameKey
					t   DumpTask
				}{
					key: frameKey{te.Pid, argInt(te.Args, "frame")},
					t: DumpTask{
						Name:        te.Name,
						StartUs:     te.Ts,
						PredictedMs: argFloat(te.Args, "predicted_ms"),
						ActualMs:    argFloat(te.Args, "actual_ms"),
						Stripes:     argInt(te.Args, "stripes"),
						Scenario:    argString(te.Args, "scenario"),
						Quality:     argString(te.Args, "quality"),
					},
				})
			default:
				return nil, fmt.Errorf("span: event %d (%s): unknown span category %q", i, te.Name, te.Cat)
			}
		case "i", "I":
			if te.Name == "" {
				return nil, fmt.Errorf("span: event %d: instant with empty name", i)
			}
			if !finiteNonNeg(te.Ts) {
				return nil, fmt.Errorf("span: event %d (%s): bad ts %v", i, te.Name, te.Ts)
			}
			d.Instants = append(d.Instants, DumpInstant{
				Name: te.Name, Pid: te.Pid,
				Frame: argInt(te.Args, "frame"), TsUs: te.Ts,
			})
		case "":
			return nil, fmt.Errorf("span: event %d: missing ph", i)
		default:
			return nil, fmt.Errorf("span: event %d: unsupported ph %q", i, te.Ph)
		}
	}

	for _, rec := range tasks {
		if f, ok := frames[rec.key]; ok {
			f.Tasks = append(f.Tasks, rec.t)
		} else {
			d.OrphanTasks++
		}
	}
	for _, key := range order {
		f := frames[key]
		f.Process = d.Processes[f.Pid]
		sort.Slice(f.Tasks, func(a, b int) bool { return f.Tasks[a].StartUs < f.Tasks[b].StartUs })
		d.Frames = append(d.Frames, *f)
	}
	sort.Slice(d.Frames, func(a, b int) bool { return d.Frames[a].StartUs < d.Frames[b].StartUs })
	sort.Slice(d.Instants, func(a, b int) bool { return d.Instants[a].TsUs < d.Instants[b].TsUs })
	return d, nil
}

func finiteNonNeg(f float64) bool {
	return !math.IsNaN(f) && !math.IsInf(f, 0) && f >= 0
}
