package main

import (
	"math"
	"runtime"
	"time"

	"triplec/internal/core"
	"triplec/internal/frame"
	"triplec/internal/mapping"
	"triplec/internal/metrics"
	"triplec/internal/parallel"
	"triplec/internal/pipeline"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/stream"
	"triplec/internal/tasks"
)

// replayCap bounds how many of a repetition's frames each layer is replayed
// over: enough for a steady p50, small enough that the replay of a
// 20000-frame repetition stays well under a second per layer.
const replayCap = 4000

// replayer times calls into one layer after another on a single goroutine,
// recording one span per timed call (per batch for nanosecond-scale calls).
type replayer struct {
	log    *spanLog
	base   time.Time
	layers map[string]sample
}

// timed runs fn(i) for i in [0,calls) in batches of batch and returns the
// per-call durations in ns (a batch's duration divided evenly).
func (r *replayer) timed(name string, calls, batch int, fn func(i int)) []float64 {
	out := make([]float64, 0, (calls+batch-1)/batch)
	for i := 0; i < calls; i += batch {
		end := i + batch
		if end > calls {
			end = calls
		}
		t0 := time.Since(r.base)
		for j := i; j < end; j++ {
			fn(j)
		}
		t1 := time.Since(r.base)
		r.log.add(name, -1, i, -1, int64(t0), int64(t1))
		out = append(out, float64(t1-t0)/float64(end-i))
	}
	return out
}

// p50 replays a layer and stores its median under metric, scaled from ns.
func (r *replayer) p50(metric string, perNs float64, calls, batch int, fn func(i int)) {
	xs := r.timed(metric, calls, batch, fn)
	r.layers[metric] = sample{median(xs) / perNs, len(xs)}
}

// counted is p50 plus the heap allocations and bytes per call, taken from
// MemStats deltas around the whole loop.
func (r *replayer) counted(metric string, perNs float64, allocs, bytes string, calls, batch int, fn func(i int)) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	r.p50(metric, perNs, calls, batch, fn)
	runtime.ReadMemStats(&m1)
	// The span log's own appends are amortized growth, a handful per loop.
	r.layers[allocs] = sample{float64(m1.Mallocs-m0.Mallocs) / float64(calls), calls}
	if bytes != "" {
		r.layers[bytes] = sample{float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls), calls}
	}
}

// replay feeds the traced run's own reports, mappings and demands through
// each layer's public entry point and fills rep.layers. Observer layers are
// replayed only where the workload has them switched on; elsewhere they are
// not in the path and read zero.
func replay(w workload, in *inputs, sys *system, res *stream.RunResult, rep *repetition) error {
	r := &replayer{log: rep.spans, base: time.Now(), layers: rep.layers}
	study := sys.study
	px := study.FramePixels()
	reports := res.Streams[0].Reports
	if len(reports) > replayCap {
		reports = reports[:replayCap]
	}
	n := len(reports)
	if n == 0 {
		return nil // the correctness check has already failed this repetition
	}

	// frame: the kernels the tasks are built from, at the workload's size.
	src := in.frames[0][0]
	half := frame.Downsample2x(src)
	kern, err := frame.NewKernel([]float64{0, -1, 0, -1, 5, -1, 0, -1, 0})
	if err != nil {
		return err
	}
	dst := frame.New(w.size, w.size)
	calls := 1 << 21 / px // ~2M pixels per kernel, within 5..200 calls
	if calls < 5 {
		calls = 5
	}
	if calls > 200 {
		calls = 200
	}
	perPx := float64(px)
	r.p50("frame.gaussian_ns_per_px", perPx, calls, 1, func(int) { frame.GaussianBlurInto(dst, src, 1.5) })
	r.p50("frame.sobel_ns_per_px", perPx, calls, 1, func(int) { frame.SobelInto(dst, src) })
	r.p50("frame.convolve_ns_per_px", perPx, calls, 1, func(int) { frame.ConvolveInto(dst, src, kern) })
	r.p50("frame.median3_ns_per_px", perPx, calls, 1, func(int) { frame.Median3x3Into(dst, src) })
	r.p50("frame.resize_ns_per_px", perPx, calls, 1, func(int) { frame.ResizeInto(dst, half, w.size, w.size) })

	// pipeline: Engine.Process on a fresh engine under the recorded mappings.
	eng, err := study.Engine()
	if err != nil {
		return err
	}
	var perr error
	store := in.frames[0]
	r.counted("pipeline.process_us", 1e3, "pipeline.process_allocs", "pipeline.process_bytes", n, 1, func(i int) {
		if _, err := eng.Process(store[pingPong(i, len(store))], reports[i].Mapping); err != nil {
			perr = err
		}
	})
	if perr != nil {
		return perr
	}

	// parallel: the pool round trip every frame pays before Process starts.
	pool := parallel.NewPool(w.streams)
	r.p50("parallel.do_ns", 1, 2000, 1, func(int) { _ = pool.Do(func() {}) }) // Do fails only after Close
	pool.Close()

	// core: the per-frame observation conversion and the predictor itself.
	r.counted("core.from_reports_ns", 1, "core.from_reports_allocs", "", n, 16, func(i int) {
		_ = core.FromReports(reports[i:i+1], px)
	})
	obs := core.FromReports(reports, px)
	pred, err := sys.trained.Clone()
	if err != nil {
		return err
	}
	r.p50("core.observe_predict_ns", 1, n, 1, func(i int) {
		pred.Observe(obs[i])
		_ = pred.PredictNext()
	})

	// sched: one manager's plan / observe / demand cycle, frame by frame.
	mp, err := sys.trained.Clone()
	if err != nil {
		return err
	}
	mgr, err := sched.NewManager(mp, study.Arch)
	if err != nil {
		return err
	}
	mgr.Sticky = true
	mgr.InitBudget(reports[0].LatencyMs)
	if err := mgr.SetCoreBudget(study.Arch.NumCPUs / w.streams); err != nil {
		return err
	}
	plan := make([]float64, 0, n)
	observe := make([]float64, 0, n)
	demand := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Since(r.base)
		_ = mgr.Plan()
		t1 := time.Since(r.base)
		mgr.Observe(obs[i])
		t2 := time.Since(r.base)
		_ = mgr.PredictedDemandMs()
		t3 := time.Since(r.base)
		r.log.add("sched.plan_ns", -1, i, -1, int64(t0), int64(t1))
		r.log.add("sched.observe_ns", -1, i, -1, int64(t1), int64(t2))
		r.log.add("sched.demand_ns", -1, i, -1, int64(t2), int64(t3))
		plan = append(plan, float64(t1-t0))
		observe = append(observe, float64(t2-t1))
		demand = append(demand, float64(t3-t2))
	}
	r.layers["sched.plan_ns"] = sample{median(plan), n}
	r.layers["sched.observe_ns"] = sample{median(observe), n}
	r.layers["sched.demand_ns"] = sample{median(demand), n}

	// sched + mapping: the arbiter's report-and-redivide step on the demand
	// signal the serving loop builds (scalar demand + one-frame profile), and
	// the Pareto optimizer on the same signal folded the way the arbiter
	// folds it (a one-frame profile has one scenario filled in and would
	// make Map look several times cheaper than it is in the run).
	const alpha = 0.25                     // sched.MultiManager's default smoothing
	raw := make([][]sched.StreamDemand, n) // [frame][stream]
	folded := make([][]sched.StreamDemand, n)
	for i := range raw {
		raw[i] = make([]sched.StreamDemand, w.streams)
		folded[i] = make([]sched.StreamDemand, w.streams)
		for s := range raw[i] {
			sr := res.Streams[s]
			if i >= len(sr.Reports) {
				continue
			}
			d := &raw[i][s]
			d.TotalMs, d.BudgetMs = sr.Reports[i].LatencyMs, sr.Stats.BudgetMs
			d.FrameKB = px * frame.BytesPerPixel / 1024
			d.Profile.Add(sr.Reports[i])
			if i == 0 {
				folded[i][s] = *d
				continue
			}
			f := &folded[i][s]
			*f = folded[i-1][s]
			f.TotalMs = (1-alpha)*f.TotalMs + alpha*d.TotalMs
			f.Profile.Fold(&d.Profile, alpha)
		}
	}
	mm, err := sched.NewMultiManager(study.Arch.NumCPUs, w.streams)
	if err != nil {
		return err
	}
	r.p50("sched.rebalance_ns", 1, n, 1, func(i int) {
		for s := range raw[i] {
			mm.ReportStream(s, &raw[i][s])
		}
		_ = mm.Rebalance()
	})
	opt, err := mapping.NewOptimizer(study.Arch)
	if err != nil {
		return err
	}
	plans := make([]sched.StreamPlan, w.streams)
	var merr error
	r.counted("mapping.map_us", 1e3, "mapping.map_allocs", "", n, 1, func(i int) {
		if err := opt.Map(study.Arch.NumCPUs, folded[i], plans); err != nil {
			merr = err
		}
	})
	if merr != nil {
		return merr
	}

	if w.full {
		if err := replayObservers(r, w, sys, res, reports, obs); err != nil {
			return err
		}
	}

	// stream.self_us: what is left of a frame's service time once Process
	// and every replayed control-plane and observer call that is switched on
	// are taken out — the serving loop's own cost, lock waits included.
	us := func(name string, perUs float64) float64 { return r.layers[name].value / perUs }
	processed := 0
	for _, sr := range res.Streams {
		processed += sr.Stats.Processed
	}
	rebalancesPerFrame := float64(res.Rebalances) / float64(processed)
	accounted := us("pipeline.process_us", 1) + us("parallel.do_ns", 1e3) + us("core.from_reports_ns", 1e3) +
		us("sched.plan_ns", 1e3) + us("sched.observe_ns", 1e3) + us("sched.demand_ns", 1e3) +
		us("sched.rebalance_ns", 1e3)*rebalancesPerFrame
	if w.full {
		accounted += us("mapping.map_us", 1)*rebalancesPerFrame +
			us("shadow.observe_ns", 1e3) + us("promote.observe_ns", 1e3) + us("slo.observe_ns", 1e3) +
			us("span.frame_ns", 1e3) + us("metrics.observe_ns", 1e3)
	}
	r.layers["stream.self_us"] = sample{rep.values["frame_service_p50_us"] - accounted, len(rep.service)}
	return nil
}

// replayObservers times the five commit observers of a fully-observed
// workload on fresh instances, and the status surfaces on the run's own.
func replayObservers(r *replayer, w workload, sys *system, res *stream.RunResult, reports []pipeline.Report, obs []core.Observation) error {
	study := sys.study
	px := study.FramePixels()
	n := len(reports)
	tr := res.Streams[0].Trace
	predicted, err := tr.Get("predicted_ms")
	if err != nil {
		return err
	}
	missed, err := tr.Get("missed")
	if err != nil {
		return err
	}
	budget := res.Streams[0].Stats.BudgetMs

	bp, err := sys.trained.Clone()
	if err != nil {
		return err
	}
	backends, err := shadow.TrainBackends(bp, sys.sets, core.TrainConfig{})
	if err != nil {
		return err
	}
	board, err := shadow.NewBoard("replay", backends)
	if err != nil {
		return err
	}
	var dense core.FrameObs
	r.p50("shadow.observe_ns", 1, n, 16, func(i int) {
		core.DenseFromReport(&reports[i], px, &dense)
		board.ObserveFrame(&dense)
	})

	mgr, err := sched.NewManager(bp, study.Arch)
	if err != nil {
		return err
	}
	ctl, err := promote.NewController(promote.Config{Challenger: "auto", BeatFrames: math.MaxInt32})
	if err != nil {
		return err
	}
	if err := ctl.AttachStream("replay", board, mgr); err != nil {
		return err
	}
	r.p50("promote.observe_ns", 1, n, 16, func(i int) { ctl.ObserveServed(0, missed[i] == 1) })

	tracker := slo.NewTracker(slo.Config{Streams: 1})
	var fin slo.FrameInput
	r.p50("slo.observe_ns", 1, n, 16, func(i int) {
		fin = slo.FrameInput{Frame: i, LatencyMs: reports[i].LatencyMs, PredictedMs: predicted[i], BudgetMs: budget}
		tracker.ObserveFrame(&fin)
	})

	fb := span.NewFrameBuilder(span.NewRecorder(0), 0)
	r.p50("span.frame_ns", 1, n, 16, func(i int) {
		rp := &reports[i]
		fb.BeginFrame(i)
		for _, e := range rp.Execs {
			ti := tasks.IndexOf(e.Task)
			fb.BeginTask(ti)
			fb.EndTask(e.Ms, e.Stripes)
			fb.SetPredicted(ti, e.Ms)
		}
		fb.Commit(i, rp.Scenario.Index(), int(rp.Quality), span.OutcomeProcessed, 4, predicted[i], rp.LatencyMs, budget)
	})

	taskNames := make([]string, tasks.NumNames)
	for ti, tn := range tasks.AllNames() {
		taskNames[ti] = string(tn)
	}
	acct, err := metrics.NewAccountant(metrics.NewRegistry(), metrics.AccountantConfig{Stream: "replay", Tasks: taskNames})
	if err != nil {
		return err
	}
	r.p50("metrics.observe_ns", 1, n, 16, func(i int) {
		rp := &reports[i]
		acct.Offered.Inc()
		acct.LastFrame.Set(float64(i))
		acct.FrameLatencyMs.Observe(rp.LatencyMs)
		for _, e := range rp.Execs {
			ti := tasks.IndexOf(e.Task)
			acct.ObserveTask(ti, e.Ms)
			acct.ObservePrediction(ti, obs[i].TaskMs[e.Task], e.Ms)
		}
		acct.ObserveScenario(true)
		acct.Processed.Inc()
		acct.LastLatencyMs.Set(rp.LatencyMs)
		acct.PredictedDemandMs.Set(predicted[i])
	})

	if !w.scraped {
		// No live reader on this workload: read the run's own, now quiet,
		// status surfaces a few times instead.
		s := &scraper{sys: sys}
		for i := 0; i < 20; i++ {
			s.once()
		}
		s.report(r.layers)
	}
	return nil
}
