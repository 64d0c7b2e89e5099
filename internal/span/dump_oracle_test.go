package span

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"testing"
)

// writeDumpReflect is WriteDump as it stood before the append-style encoder:
// it builds a traceFile of map[string]any args and hands it to encoding/json.
// The byte-equality tests hold WriteDump to it.
func writeDumpReflect(w io.Writer, meta Meta, events []Event, hdr dumpHeader) error {
	tf := traceFile{
		DisplayTimeUnit: "ms",
		OtherData: map[string]any{
			"format":    "triplec-flight-recorder-v1",
			"reason":    hdr.Reason,
			"stream":    hdr.Stream,
			"frame":     hdr.Frame,
			"detail":    hdr.Detail,
			"coalesced": hdr.Coalesced,
			"predictor": meta.Predictor,
			"promotion": meta.Promotion,
		},
		TraceEvents: make([]traceEvent, 0, len(events)+len(meta.Streams)+1),
	}

	// Process-name metadata: one per stream plus the global pseudo-process.
	tf.TraceEvents = append(tf.TraceEvents, traceEvent{
		Name: "process_name", Ph: "M", Pid: 0,
		Args: map[string]any{"name": "global"},
	})
	for i, name := range meta.Streams {
		tf.TraceEvents = append(tf.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: i + 1,
			Args: map[string]any{"name": name},
		})
	}

	for i := range events {
		ev := &events[i]
		te := traceEvent{Pid: pidOf(ev.Stream), Ts: usec(ev.StartNs)}
		args := map[string]any{"frame": int(ev.Frame)}
		switch ev.Kind {
		case KindFrame:
			te.Ph, te.Cat = "X", "frame"
			te.Dur = usec(ev.DurNs)
			te.Name = "frame " + itoa(int(ev.Frame))
			args["scenario"] = label(meta.Scenarios, int(ev.Scenario), "scenario")
			args["quality"] = label(meta.Qualities, int(ev.Quality), "q")
			args["outcome"] = OutcomeName(ev.Outcome)
			args["predicted_ms"] = ev.Arg0
			args["actual_ms"] = ev.Arg1
			args["budget_ms"] = ev.Arg2
			args["cores"] = int(ev.Cores)
		case KindTask:
			te.Ph, te.Cat = "X", "task"
			te.Tid = 1
			te.Dur = usec(ev.DurNs)
			te.Name = label(meta.Tasks, int(ev.Task), "task")
			args["task"] = te.Name
			args["predicted_ms"] = ev.Arg0
			args["actual_ms"] = ev.Arg1
			args["stripes"] = int(ev.Cores)
			args["scenario"] = label(meta.Scenarios, int(ev.Scenario), "scenario")
			args["quality"] = label(meta.Qualities, int(ev.Quality), "q")
		case KindRebalance:
			te.Ph, te.Cat, te.Scope = "i", "sched", "g"
			te.Name = "rebalance"
			args["before"] = UnpackBudgets(ev.Pack0, ev.Cores)
			args["after"] = UnpackBudgets(ev.Pack1, ev.Cores)
			delete(args, "frame")
		case KindDegrade:
			te.Ph, te.Cat, te.Scope = "i", "quality", "p"
			te.Name = "degrade"
			args["from"] = label(meta.Qualities, int(ev.Arg0), "q")
			args["to"] = label(meta.Qualities, int(ev.Quality), "q")
		case KindFault:
			te.Ph, te.Cat, te.Scope = "i", "fault", "p"
			te.Name = "fault:" + FaultName(int(ev.Arg0))
			args["fault"] = FaultName(int(ev.Arg0))
			if ev.Task >= 0 {
				args["task"] = label(meta.Tasks, int(ev.Task), "task")
			}
		case KindBreakerTrip:
			te.Ph, te.Cat, te.Scope = "i", "fault", "p"
			te.Name = "breaker_trip"
			if ev.Task >= 0 {
				args["task"] = label(meta.Tasks, int(ev.Task), "task")
			}
		case KindScenarioMiss:
			te.Ph, te.Cat, te.Scope = "i", "predict", "p"
			te.Name = "scenario_miss"
			args["predicted"] = label(meta.Scenarios, int(ev.Arg0), "scenario")
			args["actual"] = label(meta.Scenarios, int(ev.Scenario), "scenario")
		case KindSuppressed:
			te.Ph, te.Cat, te.Scope = "i", "quality", "p"
			te.Name = "suppressed"
			if ev.Task >= 0 {
				args["task"] = label(meta.Tasks, int(ev.Task), "task")
			}
		case KindTrigger:
			te.Ph, te.Cat, te.Scope = "i", "flightrec", "g"
			te.Name = "trigger:" + ReasonName(TriggerReason(ev.Outcome))
			args["reason"] = ReasonName(TriggerReason(ev.Outcome))
			args["detail"] = ev.Arg0
		case KindPromote:
			te.Ph, te.Cat, te.Scope = "i", "promote", "g"
			te.Name = "promote:" + PromoteStateName(ev.Outcome)
			args["from"] = PromoteStateName(int32(ev.Arg0))
			args["to"] = PromoteStateName(ev.Outcome)
			args["backend_slot"] = int(ev.Arg1)
			delete(args, "frame")
		default: // skip, abandon, stall, restart, quarantine
			te.Ph, te.Cat, te.Scope = "i", "lifecycle", "p"
			te.Name = KindName(ev.Kind)
		}
		te.Args = args
		tf.TraceEvents = append(tf.TraceEvents, te)
	}

	enc := json.NewEncoder(w)
	return enc.Encode(tf)
}

// label and itoa rendered the reflect writer's labels; WriteDump appends the
// same text through appendLabel.
func label(table []string, i int, prefix string) string {
	if i >= 0 && i < len(table) {
		return table[i]
	}
	if i < 0 {
		return ""
	}
	return prefix + itoa(i)
}

func itoa(i int) string {
	if i == 0 {
		return "0"
	}
	var buf [12]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = byte('0' + i%10)
		i /= 10
	}
	return string(buf[n:])
}

// awkwardMeta has labels that need every escape encoding/json applies:
// quotes, backslashes, HTML characters, control bytes, U+2028/2029, invalid
// UTF-8 — and tables shorter than the ids the events carry.
var awkwardMeta = Meta{
	Streams:   []string{`cam "A"`, "b<&>", "\u2028 \u2029 \\ \x00\x1f\b\f\n\r\t", "bad\xff\xfeutf8", ""},
	Tasks:     []string{"RDG<FULL>", `MKX"EXT`, "CPLS&SEL", "plain"},
	Scenarios: []string{"rdg=on gran=full reg=ok", "s\\1", "é\u2028"},
	Qualities: []string{"full", `ha"lf`},
	Predictor: `ewma+markov <"&">`,
	Promotion: "canary:quantile-p90\u2029",
}

// everyKindEvents is one event of every kind (and one of an unknown kind)
// for each of a set of awkward field values: negative and zero frames, zero
// and negative durations, ids out of their table's range, floats on both
// sides of encoding/json's exponent cutoffs.
func everyKindEvents() []Event {
	floats := []float64{0, 1, -2.5, 3.2, 1e-6, 9.99e-7, 1e-7, 1.5e-9, 1e20, 1e21, 1.234e22, -1e-300, 5e-324, math.MaxFloat64, 0.1 + 0.2}
	ids := []int32{-1, 0, 1, 2, 3, 7, 100}
	var out []Event
	n := 0
	for k := Kind(0); k <= KindPromote+1; k++ {
		for _, frame := range []int32{-5, -1, 0, 9, 123456} {
			for rep := 0; rep < 4; rep++ {
				n++
				pick := func(i int) float64 { return floats[(n*7+i*3)%len(floats)] }
				id := func(i int) int32 { return ids[(n*5+i)%len(ids)] }
				ev := Event{
					Kind: k, Stream: id(0), Frame: frame, Task: id(1), Scenario: id(2), Quality: id(3),
					Cores: int32(n % 11), Outcome: int32(n % 7), StartNs: int64(n) * 1234567, DurNs: int64(n%3) * 1001,
					Arg0: pick(0), Arg1: pick(1), Arg2: pick(2),
					Pack0: uint64(n) * 0x0102030405060708, Pack1: ^uint64(n),
				}
				switch rep {
				case 1:
					ev.DurNs = 0
					ev.Arg0 = float64(id(4)) // an id where the kind reads Arg0 as one
					ev.Arg1 = float64(id(5))
				case 2:
					ev.DurNs, ev.StartNs = -7, 0
					ev.Cores = -3
				}
				out = append(out, ev)
			}
		}
	}
	return out
}

func dumpBoth(t testing.TB, meta Meta, events []Event, hdr dumpHeader) (got, want []byte, gotErr, wantErr error) {
	t.Helper()
	var g, w bytes.Buffer
	gotErr = WriteDump(&g, meta, events, hdr)
	wantErr = writeDumpReflect(&w, meta, events, hdr)
	return g.Bytes(), w.Bytes(), gotErr, wantErr
}

func requireSameDump(t testing.TB, meta Meta, events []Event, hdr dumpHeader) {
	t.Helper()
	got, want, gotErr, wantErr := dumpBoth(t, meta, events, hdr)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("WriteDump error %v, reflect writer %v", gotErr, wantErr)
	}
	if wantErr != nil {
		return
	}
	if !bytes.Equal(got, want) {
		i := 0
		for i < len(got) && i < len(want) && got[i] == want[i] {
			i++
		}
		lo, hiG, hiW := max(0, i-120), min(len(got), i+80), min(len(want), i+80)
		t.Fatalf("dumps differ at byte %d of %d/%d:\n got  ...%s\n want ...%s", i, len(got), len(want), got[lo:hiG], want[lo:hiW])
	}
}

// TestWriteDumpMatchesReflectWriter: byte equality with the encoding/json
// writer over every kind and awkward value, under plain and awkward label
// tables, with a header that needs escaping too.
func TestWriteDumpMatchesReflectWriter(t *testing.T) {
	events := everyKindEvents()
	hdr := dumpHeader{Reason: `deadline_miss<"x">`, Stream: -1, Frame: -7, Detail: 1e-9, Coalesced: 3}
	for name, meta := range map[string]Meta{"plain": testMeta, "awkward": awkwardMeta, "empty": {}} {
		t.Run(name, func(t *testing.T) {
			requireSameDump(t, meta, events, hdr)
			requireSameDump(t, meta, nil, dumpHeader{})
			// One event at a time, so a difference names its event.
			for i := range events {
				requireSameDump(t, meta, events[i:i+1], hdr)
			}
		})
	}
	rec, _, _, _ := buildRing()
	requireSameDump(t, rec.Meta(), rec.Snapshot(), dumpHeader{Reason: "manual"})
}

// TestWriteDumpFullRing: a ring's worth of events crosses the fixed buffer
// many times; the bytes still match and the dump still reads back.
func TestWriteDumpFullRing(t *testing.T) {
	events := fullRing()
	requireSameDump(t, awkwardMeta, events, dumpHeader{Reason: "manual", Detail: 0.75})
	var buf bytes.Buffer
	if err := WriteDump(&buf, awkwardMeta, events, dumpHeader{Reason: "manual"}); err != nil {
		t.Fatal(err)
	}
	if buf.Len() < 20*dumpBufBytes {
		t.Fatalf("full-ring dump is %d bytes; it should cross the %d-byte buffer many times", buf.Len(), dumpBufBytes)
	}
	d, err := ReadDump(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Frames) == 0 || len(d.Instants) == 0 {
		t.Fatalf("round trip lost the ring: %d frames, %d instants", len(d.Frames), len(d.Instants))
	}
}

// TestWriteDumpRejectsNonFinite: NaN and the infinities are an error
// wherever a float is rendered, exactly where encoding/json refuses them.
func TestWriteDumpRejectsNonFinite(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for k := Kind(0); k <= KindPromote; k++ {
			for arg := 0; arg < 3; arg++ {
				ev := Event{Kind: k, Frame: 1, Task: 1, Scenario: 1}
				*[]*float64{&ev.Arg0, &ev.Arg1, &ev.Arg2}[arg] = bad
				_, _, gotErr, wantErr := dumpBoth(t, testMeta, []Event{ev}, dumpHeader{})
				if (gotErr == nil) != (wantErr == nil) {
					t.Fatalf("kind %s Arg%d = %v: WriteDump error %v, reflect writer %v", KindName(k), arg, bad, gotErr, wantErr)
				}
				if wantErr == nil {
					requireSameDump(t, testMeta, []Event{ev}, dumpHeader{})
				}
			}
		}
		if _, _, gotErr, wantErr := dumpBoth(t, testMeta, nil, dumpHeader{Detail: bad}); gotErr == nil || wantErr == nil {
			t.Fatalf("header detail %v accepted: %v / %v", bad, gotErr, wantErr)
		}
	}
}

type failingWriter struct{ after int }

func (w *failingWriter) Write(p []byte) (int, error) {
	if w.after -= len(p); w.after < 0 {
		return 0, io.ErrShortWrite
	}
	return len(p), nil
}

// TestWriteDumpReportsWriteErrors: a failing file surfaces from WriteDump
// whether it fails on a mid-dump flush or on the last one.
func TestWriteDumpReportsWriteErrors(t *testing.T) {
	events := fullRing()
	for _, after := range []int{0, dumpBufBytes + 1, 1 << 20} {
		if err := WriteDump(&failingWriter{after: after}, testMeta, events, dumpHeader{}); err == nil {
			t.Fatalf("write error after %d bytes was swallowed", after)
		}
	}
}

// fullRing is what a serving run leaves in a default-size ring: frame groups
// of a root span, nine task spans and the odd instant.
func fullRing() []Event {
	rec := NewRecorder(DefaultRingEvents)
	rec.SetMeta(testMeta)
	b := NewFrameBuilder(rec, 0)
	for f := 0; rec.head < 2*DefaultRingEvents; f++ {
		b.BeginFrame(f)
		for task := 0; task < 9; task++ {
			b.BeginTask(task)
			b.EndTask(float64(task)*0.37+0.011, 1+task%2)
			b.SetPredicted(task, float64(task)*0.35)
		}
		if f%9 == 0 {
			b.ScenarioMiss(f%3, (f+1)%3)
		}
		b.Commit(f, f%3, f%2, OutcomeProcessed, 2, 3.2+float64(f)*1e-3, 3.0, 33.333333333333336)
		if f%50 == 0 {
			p0, n := PackBudgets([]int{4, 4})
			p1, _ := PackBudgets([]int{2, 6})
			rec.Emit(Event{Kind: KindRebalance, Stream: -1, Frame: -1, Cores: n, Pack0: p0, Pack1: p1})
		}
	}
	return rec.Snapshot()
}

// FuzzWriteDump: on random events the two writers agree byte for byte, or
// both refuse. (The reflect writer panics rendering a fallback label for an
// id past 10^12 — its itoa has a 12-byte buffer; WriteDump must merely not.)
// TestAppendUsecMatchesAppendFloat holds the integer formatting of ts and
// dur to appendFloat(usec(ns)) on the edges of its range and on ns drawn at
// every magnitude below 2⁶³.
func TestAppendUsecMatchesAppendFloat(t *testing.T) {
	ns := []int64{0, 1, 9, 10, 999, 1000, 1001, 1010, 1100, 123456789, 1<<50 - 1, 1 << 50, 1<<53 + 1, math.MaxInt64, -1, -1500, math.MinInt64}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200000; i++ {
		ns = append(ns, rng.Int63n(int64(1)<<(1+rng.Intn(62))))
	}
	for _, n := range ns {
		want, _ := appendFloat(nil, usec(n))
		if got := appendUsec(nil, n); !bytes.Equal(got, want) {
			t.Fatalf("ns %d: appendUsec %s, appendFloat %s", n, got, want)
		}
	}
}

func FuzzWriteDump(f *testing.F) {
	f.Add(int64(1), uint8(0), int32(0), int32(0), 0.0, 0.0, 0.0, uint64(0), "q", "t")
	f.Add(int64(2), uint8(9), int32(-1), int32(40), 1e-7, 1e21, -0.0, uint64(1<<63), `"`, "<\u2028>")
	f.Add(int64(3), uint8(14), int32(3), int32(-9), math.NaN(), 2.0, math.Inf(1), ^uint64(0), "\xff", "\\")
	f.Fuzz(func(t *testing.T, seed int64, kind uint8, frame, id int32, a0, a1, a2 float64, pack uint64, label0, label1 string) {
		rng := rand.New(rand.NewSource(seed))
		meta := Meta{
			Streams:   []string{label0, label1},
			Tasks:     []string{label1, label0, "T2"},
			Scenarios: []string{label0 + label1},
			Qualities: []string{label1},
			Predictor: label0,
			Promotion: label1,
		}
		events := []Event{{
			Kind: Kind(kind % 17), Stream: id % 4, Frame: frame, Task: id, Scenario: id / 2, Quality: id / 3,
			Cores: id % 13, Outcome: frame % 9, StartNs: seed, DurNs: int64(frame),
			Arg0: a0, Arg1: a1, Arg2: a2, Pack0: pack, Pack1: ^pack,
		}}
		for i := rng.Intn(6); i > 0; i-- {
			events = append(events, Event{
				Kind: Kind(rng.Intn(17)), Stream: int32(rng.Intn(5) - 1), Frame: int32(rng.Intn(50) - 5),
				Task: int32(rng.Intn(6) - 1), Scenario: int32(rng.Intn(4) - 1), Quality: int32(rng.Intn(4) - 1),
				Cores: int32(rng.Intn(12) - 2), Outcome: int32(rng.Intn(8)), StartNs: rng.Int63n(1e12), DurNs: rng.Int63n(1e7),
				Arg0: rng.NormFloat64() * math.Pow(10, float64(rng.Intn(60)-30)), Arg1: float64(rng.Intn(9) - 2), Arg2: rng.Float64(),
				Pack0: rng.Uint64(), Pack1: rng.Uint64(),
			})
		}
		hdr := dumpHeader{Reason: label0, Stream: int(id), Frame: int(frame), Detail: a1, Coalesced: int(kind)}

		var want bytes.Buffer
		var wantErr error
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			wantErr = writeDumpReflect(&want, meta, events, hdr)
			return false
		}()
		var got bytes.Buffer
		gotErr := WriteDump(&got, meta, events, hdr)
		if panicked {
			return
		}
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("WriteDump error %v, reflect writer %v", gotErr, wantErr)
		}
		if wantErr == nil && !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("dumps differ:\n got  %s\n want %s", got.Bytes(), want.Bytes())
		}
	})
}

var dumpSink bytes.Buffer

func benchmarkDump(b *testing.B, write func(io.Writer, Meta, []Event, dumpHeader) error) {
	events := fullRing()
	if len(events) != DefaultRingEvents {
		b.Fatalf("ring holds %d events", len(events))
	}
	hdr := dumpHeader{Reason: "deadline_miss", Stream: 0, Frame: 4711, Detail: 41.5}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dumpSink.Reset()
		if err := write(&dumpSink, testMeta, events, hdr); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(dumpSink.Len()))
}

// BenchmarkWriteDump renders a full default ring (8,192 events).
func BenchmarkWriteDump(b *testing.B) { benchmarkDump(b, WriteDump) }

// BenchmarkWriteDumpReflect is the same ring through the encoding/json
// writer WriteDump replaced.
func BenchmarkWriteDumpReflect(b *testing.B) { benchmarkDump(b, writeDumpReflect) }

// TestWriteDumpAllocBudget: a full-ring dump costs a fixed handful of
// allocations (header, label table, buffer), not some per event.
func TestWriteDumpAllocBudget(t *testing.T) {
	events := fullRing()
	allocs := testing.AllocsPerRun(5, func() {
		if err := WriteDump(io.Discard, testMeta, events, dumpHeader{Reason: "manual"}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 16 {
		t.Fatalf("full-ring WriteDump allocates %v times, want <= 16", allocs)
	}
}
