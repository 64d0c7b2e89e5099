package main

import (
	"bufio"
	"os"
	"path/filepath"
	"strconv"

	"triplec/internal/tasks"
)

// spanRec is one timed interval at a layer boundary. Spans of one frame share
// stream and frame; parent is the index of the span that caused this one,
// -1 for a root. Replayed calls carry stream -1 and the call index as frame.
type spanRec struct {
	name       int16
	stream     int16
	frame      int32
	parent     int32
	start, end int64 // ns since the repetition's base time
}

// spanLog keeps a traced repetition's spans in memory; write puts them on
// disk once the repetition has ended.
type spanLog struct {
	names     []string
	index     map[string]int16
	spans     []spanRec
	taskCount [tasks.NumNames]int
}

func newSpanLog() *spanLog { return &spanLog{index: map[string]int16{}} }

func (l *spanLog) add(name string, stream, frame int, parent int32, start, end int64) int32 {
	id, ok := l.index[name]
	if !ok {
		id = int16(len(l.names))
		l.names = append(l.names, name)
		l.index[name] = id
	}
	l.spans = append(l.spans, spanRec{name: id, stream: int16(stream), frame: int32(frame), parent: parent, start: start, end: end})
	return int32(len(l.spans) - 1)
}

// addLive turns the probes' event logs into nested spans and returns the
// duration samples (µs) behind the live per-layer metrics:
//
//	stream.frame                 Source pull -> next Source pull (one frame's service)
//	  stream.dispatch            pull -> first task hook (plan is before the pull; this is pool hand-off)
//	  tasks.<NAME>               task hook -> next task hook
//	  stream.tail                last task hook -> next pull (last task + commit + arbitration + next plan)
//	    tasks.<NAME>             last task hook -> Process end, only where the observer seam is free
//
// A stream's final frame has no next pull to close it and is left out.
func (l *spanLog) addLive(probes []*probe) map[string][]float64 {
	out := map[string][]float64{}
	us := func(name string, start, end int64) {
		out[name] = append(out[name], float64(end-start)/1e3)
	}
	taskSpan := make([]string, tasks.NumNames)
	for ti, n := range tasks.AllNames() {
		taskSpan[ti] = "tasks." + string(n)
	}
	var hooks []event
	for s, p := range probes {
		ev := p.events
		for i := 0; i < len(ev); {
			// ev[i] is a pull; gather the frame's events up to the next pull.
			j := i + 1
			for j < len(ev) && ev[j].kind != evPull {
				j++
			}
			if j == len(ev) {
				break
			}
			pull, next, fr := ev[i].t, ev[j].t, int(ev[i].frame)
			root := l.add("stream.frame", s, fr, -1, pull, next)
			hooks = hooks[:0]
			end := int64(-1)
			for _, e := range ev[i+1 : j] {
				if e.kind == evEnd {
					end = e.t
				} else {
					hooks = append(hooks, e)
					l.taskCount[e.kind]++
				}
			}
			if len(hooks) > 0 {
				l.add("stream.dispatch", s, fr, root, pull, hooks[0].t)
				us("stream.dispatch_us", pull, hooks[0].t)
				for k := 0; k+1 < len(hooks); k++ {
					name := taskSpan[hooks[k].kind]
					l.add(name, s, fr, root, hooks[k].t, hooks[k+1].t)
					us(name+"_us", hooks[k].t, hooks[k+1].t)
				}
				lastHook := hooks[len(hooks)-1]
				tail := l.add("stream.tail", s, fr, root, lastHook.t, next)
				us("stream.tail_us", lastHook.t, next)
				if end >= 0 {
					name := taskSpan[lastHook.kind]
					l.add(name, s, fr, tail, lastHook.t, end)
					us(name+"_us", lastHook.t, end)
				}
			}
			i = j
		}
	}
	return out
}

// write stores the spans as compact JSON: a name table plus one
// [name, start, end, parent, stream, frame] row per span (see README.md).
func (l *spanLog) write(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	bw.WriteString(`{"workload":` + strconv.Quote(workload) + `,"seed":` + strconv.FormatUint(seed, 10) + `,"time_unit":"ns","names":[`)
	for i, n := range l.names {
		if i > 0 {
			bw.WriteByte(',')
		}
		bw.WriteString(strconv.Quote(n))
	}
	bw.WriteString(`],"columns":["name","start","end","parent","stream","frame"],"spans":[`)
	var buf []byte
	for i, sp := range l.spans {
		buf = buf[:0]
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = append(buf, "\n["...)
		for k, v := range [...]int64{int64(sp.name), sp.start, sp.end, int64(sp.parent), int64(sp.stream), int64(sp.frame)} {
			if k > 0 {
				buf = append(buf, ',')
			}
			buf = strconv.AppendInt(buf, v, 10)
		}
		buf = append(buf, ']')
		bw.Write(buf)
	}
	bw.WriteString("\n]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
