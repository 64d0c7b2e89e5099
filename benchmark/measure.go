package main

import (
	"fmt"
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"syscall"
	"time"

	"triplec/internal/frame"
	"triplec/internal/pipeline"
	"triplec/internal/tasks"
)

// Event kinds a probe logs besides task hooks (which log the task's dense
// index, 0..tasks.NumNames-1).
const (
	evPull = -1 // the server pulled the stream's next frame from Source
	evEnd  = -2 // Engine.Process committed its report (observer, bare servers only)
)

type event struct {
	t     int64 // ns since the repetition's base time
	frame int32
	kind  int8
}

// probe is the benchmark's live view of one stream, fed only through the
// seams the program already has: the Source it is handed, and — in the
// traced repetition — Engine.SetTaskHook and, where the server leaves it
// free, Engine.SetObserver. One stream's callbacks run strictly one after
// another (stream goroutine and pool worker hand off through channels), so
// the log needs no lock.
type probe struct {
	store  []*frame.Frame
	base   time.Time
	events []event
	cur    int32 // frame index of the latest pull
}

func (p *probe) log(kind int8) {
	p.events = append(p.events, event{t: int64(time.Since(p.base)), frame: p.cur, kind: kind})
}

func (p *probe) source(i int) *frame.Frame {
	p.cur = int32(i)
	p.log(evPull)
	return p.store[pingPong(i, len(p.store))]
}

func (p *probe) taskHook(name tasks.Name, _ int) { p.log(int8(tasks.IndexOf(name))) }

func (p *probe) processEnd(pipeline.Report) { p.log(evEnd) }

// repetition is everything one Server.Run produced.
type repetition struct {
	values  map[string]float64 // every end-to-end metric, this repetition alone
	service []float64          // µs between consecutive Source pulls, all streams
	latency []float64          // modeled Report.LatencyMs, all streams

	attempted, failed int
	problems          []string // correctness failures; empty means correct

	// Traced repetitions only.
	layers map[string]sample
	spans  *spanLog
}

type sample struct {
	value float64
	n     int // samples behind value
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN() // surfaces as a non-finite metric, which fails the run
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// runtimeCounters reads the cumulative runtime/metrics the per-layer section
// reports as deltas over Run.
type runtimeCounters struct{ mutexWaitS, gcCycles, gcCPUS, totalCPUS float64 }

func readRuntimeCounters() runtimeCounters {
	s := []rtmetrics.Sample{
		{Name: "/sync/mutex/wait/total:seconds"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(s)
	num := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0 // metric unknown to this runtime
	}
	return runtimeCounters{num(s[0].Value), num(s[1].Value), num(s[2].Value), num(s[3].Value)}
}

// runRepetition builds a fresh system (timed as set-up), serves w.frames
// frames per stream through stream.Server.Run, checks the outputs against
// the reference digests and derives every end-to-end metric. With traced
// set it also installs the live probes, records spans and replays the run
// through each layer (replay.go).
func runRepetition(w workload, in *inputs, traced bool, outDir string) (*repetition, error) {
	rep := &repetition{values: map[string]float64{}}
	base := time.Now()
	probes := make([]*probe, w.streams)
	sources := make([]func(int) *frame.Frame, w.streams)
	for s := range probes {
		perFrame := 1
		if traced {
			perFrame = 2 + tasks.NumNames
		}
		probes[s] = &probe{store: in.frames[s], base: base, events: make([]event, 0, w.frames*perFrame)}
		sources[s] = probes[s].source
	}

	setupStart := time.Now()
	sys, err := buildSystem(w, sources, outDir)
	if err != nil {
		return nil, err
	}
	defer sys.close()
	rep.values["setup_s"] = time.Since(setupStart).Seconds()

	if traced {
		for s, eng := range sys.engines {
			eng.SetTaskHook(probes[s].taskHook)
			if !w.full { // with Metrics set the server owns the observer seam
				eng.SetObserver(probes[s].processEnd)
			}
		}
	}
	var scr *scraper
	if w.scraped {
		scr = startScraper(sys)
	}

	runtime.GC()
	var m0, m1, m2 runtime.MemStats
	runtime.ReadMemStats(&m0)
	rt0 := readRuntimeCounters()
	cpu0 := cpuSeconds()
	res, runErr := sys.srv.Run(w.frames)
	cpu1 := cpuSeconds()
	rt1 := readRuntimeCounters()
	runtime.ReadMemStats(&m1)
	if scr != nil {
		scr.stop()
	}
	runtime.GC()
	runtime.ReadMemStats(&m2) // res still live: Result.Reports retains every output frame

	if runErr != nil {
		rep.problems = append(rep.problems, "Run: "+runErr.Error())
	}
	processed, misses := 0, 0
	var modeledMs float64
	within, predicted := 0, 0
	for s, r := range res.Streams {
		st := r.Stats
		rep.attempted += st.Offered
		processed += st.Processed
		misses += st.DeadlineMisses
		if st.Offered != st.Processed+st.Skipped+st.Failed+st.Abandoned {
			rep.problems = append(rep.problems, fmt.Sprintf("stream %d: offered %d != processed+skipped+failed+abandoned", s, st.Offered))
		}
		if r.Err != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("stream %d: %v", s, r.Err))
		}
		if got := digestReports(r.Reports); got != in.digests[s] {
			rep.problems = append(rep.problems, fmt.Sprintf("stream %d: output digest %016x, reference %016x", s, got, in.digests[s]))
		}
		for i := range r.Reports {
			rep.latency = append(rep.latency, r.Reports[i].LatencyMs)
			modeledMs += r.Reports[i].LatencyMs
		}
		lat, err1 := r.Trace.Get("latency_ms")
		pred, err2 := r.Trace.Get("predicted_ms")
		if err1 != nil || err2 != nil {
			rep.problems = append(rep.problems, fmt.Sprintf("stream %d: result trace lacks latency_ms/predicted_ms", s))
			continue
		}
		for i := range lat {
			if pred[i] > 0 && lat[i] > 0 {
				predicted++
				if math.Abs(pred[i]-lat[i])/lat[i] <= 0.25 {
					within++
				}
			}
		}
	}
	rep.failed = rep.attempted - processed
	if rep.failed != 0 {
		rep.problems = append(rep.problems, fmt.Sprintf("%d of %d offered frames were not processed", rep.failed, rep.attempted))
	}
	for _, p := range probes {
		last := int64(-1)
		for _, e := range p.events {
			if e.kind != evPull {
				continue
			}
			if last >= 0 {
				rep.service = append(rep.service, float64(e.t-last)/1e3)
			}
			last = e.t
		}
	}

	n := float64(processed)
	v := rep.values
	v["frames_per_s"] = n / (res.WallMs / 1e3)
	v["frame_service_p50_us"] = percentile(rep.service, 0.50)
	v["frame_service_p90_us"] = percentile(rep.service, 0.90)
	v["cpu_ms_per_frame"] = (cpu1 - cpu0) * 1e3 / n
	v["allocs_per_frame"] = float64(m1.Mallocs-m0.Mallocs) / n
	v["bytes_per_frame"] = float64(m1.TotalAlloc-m0.TotalAlloc) / n
	v["retained_kb_per_frame"] = (float64(m2.HeapAlloc) - float64(m0.HeapAlloc)) / 1024 / n
	v["modeled_fps"] = n / (modeledMs / 1e3)
	v["modeled_latency_p99_ms"] = percentile(rep.latency, 0.99)
	v["deadline_hit_rate"] = 1 - float64(misses)/n
	for _, d := range endToEnd {
		if !finite(v[d.name]) {
			rep.problems = append(rep.problems, fmt.Sprintf("%s is not finite (%v)", d.name, v[d.name]))
		}
	}

	if traced {
		rep.spans = newSpanLog()
		live := rep.spans.addLive(probes)
		rep.layers = map[string]sample{
			"pipeline.modeled_latency_p50_ms": {percentile(rep.latency, 0.50), len(rep.latency)},
			"core.pred_within25_rate":         {float64(within) / float64(predicted), predicted},
			"sched.deadline_miss_rate":        {float64(misses) / n, processed},
			"stream.rebalances_per_kframe":    {float64(res.Rebalances) * 1e3 / n, processed},
			"stream.frame_service_p99_us":     {percentile(rep.service, 0.99), len(rep.service)},
			"runtime.mutex_wait_us_per_frame": {(rt1.mutexWaitS - rt0.mutexWaitS) * 1e6 / n, processed},
			"runtime.gc_cycles_per_kframe":    {(rt1.gcCycles - rt0.gcCycles) * 1e3 / n, processed},
			"runtime.gc_cpu_frac":             {0, processed},
		}
		// The runtime refreshes its CPU classes at GC cycles; a repetition too
		// short to see one has no CPU delta to take a share of.
		if total := rt1.totalCPUS - rt0.totalCPUS; total > 0 {
			rep.layers["runtime.gc_cpu_frac"] = sample{(rt1.gcCPUS - rt0.gcCPUS) / total, processed}
		}
		for name, xs := range live {
			rep.layers[name] = sample{median(xs), len(xs)}
		}
		for ti, name := range tasks.AllNames() {
			rep.layers["tasks."+string(name)+"_count"] = sample{float64(rep.spans.taskCount[ti]), rep.spans.taskCount[ti]}
		}
		scr.report(rep.layers)
		// The replay needs the reports' timings and mappings, not their
		// pixels: let the retained output frames go first, or at 512x512 the
		// collector works through 140 MB beside every replayed call.
		for _, r := range res.Streams {
			for i := range r.Reports {
				r.Reports[i].Output = nil
			}
		}
		runtime.GC()
		if err := replay(w, in, sys, &res, rep); err != nil {
			return nil, err
		}
	}
	return rep, nil
}
