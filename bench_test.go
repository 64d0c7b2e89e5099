package triplec

// One benchmark per table and figure of the paper's evaluation (DESIGN.md
// §4), plus ablation benches for the design choices the paper calls out
// (DESIGN.md §5). Run with:
//
//	go test -bench=. -benchmem
//
// The benchmarks measure the computational kernel behind each experiment
// and report the experiment's headline quantity via b.ReportMetric where
// one exists (accuracy, MB/s, ms).

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"testing"

	"triplec/internal/bandwidth"
	"triplec/internal/core"
	"triplec/internal/ewma"
	"triplec/internal/experiments"
	"triplec/internal/flowgraph"
	"triplec/internal/frame"
	"triplec/internal/markov"
	"triplec/internal/memmodel"
	"triplec/internal/platform"
	"triplec/internal/sched"
	"triplec/internal/stats"
	"triplec/internal/stream"
	"triplec/internal/synth"
	"triplec/internal/tasks"
)

// benchStudy is the shared setup: trained predictor, test observations and
// a reference frame, built once across all benchmarks.
var benchSetup struct {
	once      sync.Once
	err       error
	study     experiments.Study
	predictor *core.Predictor
	tests     [][]core.Observation
	seq       *synth.Sequence
	frame     *frame.Frame
	machine   *platform.Machine
	rdgSeries []float64
}

func setup(b *testing.B) {
	b.Helper()
	benchSetup.once.Do(func() {
		s := experiments.DefaultStudy()
		s.TrainSeqs = 4
		s.TrainFrames = 60
		s.TestSeqs = 2
		s.TestFrames = 60
		benchSetup.study = s
		p, err := s.TrainPredictor()
		if err != nil {
			benchSetup.err = err
			return
		}
		benchSetup.predictor = p
		tests, err := s.TestSets()
		if err != nil {
			benchSetup.err = err
			return
		}
		benchSetup.tests = tests
		seq, err := s.Sequence(12345)
		if err != nil {
			benchSetup.err = err
			return
		}
		benchSetup.seq = seq
		f, _ := seq.Frame(0)
		benchSetup.frame = f
		benchSetup.machine, benchSetup.err = platform.NewMachine(s.Arch)
		if benchSetup.err != nil {
			return
		}
		// An RDG FULL time series for the Markov-training benches.
		rdg := tasks.NewRidgeDetector(tasks.DefaultCostParams(s.FramePixels()))
		series := make([]float64, 200)
		for i := range series {
			fr, _ := seq.Frame(i)
			_, cost := rdg.Run(fr)
			series[i] = benchSetup.machine.ExecMs(cost, 1)
		}
		benchSetup.rdgSeries = series
	})
	if benchSetup.err != nil {
		b.Fatal(benchSetup.err)
	}
}

// BenchmarkTable1MemoryRequirements regenerates Table 1.
func BenchmarkTable1MemoryRequirements(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := memmodel.Table(memmodel.PaperFrameKB); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2InterTaskBandwidth regenerates the Fig. 2 edge labels and
// reports the worst-case scenario's total bandwidth.
func BenchmarkFig2InterTaskBandwidth(b *testing.B) {
	var total float64
	for i := 0; i < b.N; i++ {
		var err error
		total, err = flowgraph.WorstCase().TotalMBs(memmodel.PaperFrameKB, 30)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(total, "MB/s")
}

// BenchmarkFig3RDGSeries measures the Fig. 3 kernel: one RDG FULL execution
// plus the EWMA decomposition step, reporting the task's modeled time.
func BenchmarkFig3RDGSeries(b *testing.B) {
	setup(b)
	rdg := tasks.NewRidgeDetector(tasks.DefaultCostParams(benchSetup.study.FramePixels()))
	var ms float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cost := rdg.Run(benchSetup.frame)
		ms = benchSetup.machine.ExecMs(cost, 1)
	}
	b.ReportMetric(ms, "task-ms")
}

// BenchmarkFig4ArchitectureModel builds and describes the platform model.
func BenchmarkFig4ArchitectureModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		arch := platform.Blackford()
		if _, err := platform.NewMachine(arch); err != nil {
			b.Fatal(err)
		}
		_ = arch.Describe()
	}
}

// BenchmarkFig5IntraTaskBandwidth runs the space-time buffer-occupation
// prediction for RDG FULL and reports the predicted traffic.
func BenchmarkFig5IntraTaskBandwidth(b *testing.B) {
	var kb int
	for i := 0; i < b.N; i++ {
		var err error
		kb, err = bandwidth.IntraTaskKB(tasks.NameRDGFull, true, memmodel.PaperFrameKB, 4096)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(kb)*30/1024, "MB/s")
}

// BenchmarkFig5SimulatedTraffic replays the same scans through the LRU
// cache simulator (the measurement side of Fig. 5).
func BenchmarkFig5SimulatedTraffic(b *testing.B) {
	cfg := platform.Blackford().L2
	for i := 0; i < b.N; i++ {
		if _, err := bandwidth.MeasureIntraTaskKB(tasks.NameRDGFull, true, memmodel.PaperFrameKB, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6ROISweep measures the Fig. 6 kernel: RDG on an ROI subframe,
// serial vs 2-stripe, reporting the serial/striped latency ratio.
func BenchmarkFig6ROISweep(b *testing.B) {
	setup(b)
	rdg := tasks.NewRidgeDetector(tasks.DefaultCostParams(benchSetup.study.FramePixels()))
	roi := frame.R(32, 32, 96, 96)
	sub := benchSetup.frame.SubFrame(roi)
	var ratio float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, cost := rdg.Run(sub)
		serial := benchSetup.machine.ExecMs(cost, 1)
		striped := benchSetup.machine.StripedMs(cost, 2)
		ratio = serial / striped
	}
	b.ReportMetric(ratio, "serial/2-stripe")
}

// BenchmarkTable2aMarkovTraining trains the RDG Markov chain (Table 2a).
func BenchmarkTable2aMarkovTraining(b *testing.B) {
	setup(b)
	series := [][]float64{benchSetup.rdgSeries}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := markov.Train(series, 10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable2bPrediction measures one full Triple-C next-frame
// prediction (the Table 2b model set applied once).
func BenchmarkTable2bPrediction(b *testing.B) {
	setup(b)
	p := benchSetup.predictor
	p.ResetOnline()
	p.Observe(benchSetup.tests[0][0])
	var total float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = p.PredictNext().TotalMs
	}
	b.ReportMetric(total, "pred-ms")
}

// BenchmarkFig7SemiAutoParallel measures the managed per-frame loop: plan,
// process, observe — the paper's runtime-adaptation cycle.
func BenchmarkFig7SemiAutoParallel(b *testing.B) {
	setup(b)
	s := benchSetup.study
	eng, err := s.Engine()
	if err != nil {
		b.Fatal(err)
	}
	mgr, err := sched.NewManager(benchSetup.predictor, s.Arch)
	if err != nil {
		b.Fatal(err)
	}
	mgr.BudgetMs = 40
	src := experiments.Source(benchSetup.seq)
	var obs core.Observation
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := mgr.Step(eng, src(i%200), false, s.FramePixels(), &obs); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig7Straightforward measures the baseline serial frame loop.
func BenchmarkFig7Straightforward(b *testing.B) {
	setup(b)
	eng, err := benchSetup.study.Engine()
	if err != nil {
		b.Fatal(err)
	}
	src := experiments.Source(benchSetup.seq)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := eng.Process(src(i%200), nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictionAccuracy evaluates the trained predictor on the
// held-out sets and reports the §7 accuracy headline.
func BenchmarkPredictionAccuracy(b *testing.B) {
	setup(b)
	var acc core.Accuracy
	for i := 0; i < b.N; i++ {
		var err error
		acc, err = benchSetup.predictor.Evaluate(benchSetup.tests, 3)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(acc.Mean*100, "accuracy-%")
	b.ReportMetric(acc.WorstExcursion*100, "worst-excursion-%")
}

// BenchmarkAblationPredictorParts compares the full EWMA+Markov model with
// EWMA-only and constant-mean prediction on the RDG series, reporting each
// variant's accuracy (the paper's §4 decoupling argument).
func BenchmarkAblationPredictorParts(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]

	variants := []struct {
		name string
		run  func() float64 // returns 1 - MAPE on the test split
	}{
		{"ewma+markov", func() float64 {
			m, err := core.NewEWMAMarkovModel([][]float64{train}, 0.15, 10, "RDG")
			if err != nil {
				b.Fatal(err)
			}
			return modelAccuracy(m, test)
		}},
		{"ewma-only", func() float64 {
			f, err := ewma.NewFilter(0.15)
			if err != nil {
				b.Fatal(err)
			}
			var preds, acts []float64
			for i, x := range test {
				if i > 0 {
					preds = append(preds, f.Value())
					acts = append(acts, x)
				}
				f.Update(x)
			}
			mape, err := stats.MeanAbsPercentError(preds, acts)
			if err != nil {
				b.Fatal(err)
			}
			return 1 - mape
		}},
		{"mean-only", func() float64 {
			mean := stats.Mean(train)
			var preds, acts []float64
			for _, x := range test {
				preds = append(preds, mean)
				acts = append(acts, x)
			}
			mape, err := stats.MeanAbsPercentError(preds, acts)
			if err != nil {
				b.Fatal(err)
			}
			return 1 - mape
		}},
	}
	for _, v := range variants {
		b.Run(v.name, func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				acc = v.run()
			}
			b.ReportMetric(acc*100, "accuracy-%")
		})
	}
}

// modelAccuracy replays a test series through a core.Model and returns
// 1 - MAPE of its one-step predictions.
func modelAccuracy(m core.Model, test []float64) float64 {
	m.ResetOnline()
	var preds, acts []float64
	for i, x := range test {
		if i > 0 {
			preds = append(preds, m.Predict(core.Context{}))
			acts = append(acts, x)
		}
		m.Observe(core.Context{}, x)
	}
	mape, err := stats.MeanAbsPercentError(preds, acts)
	if err != nil {
		return 0
	}
	return 1 - mape
}

// BenchmarkAblationStateCount sweeps the Markov state cap around the
// paper's "approximately 2M states" rule.
func BenchmarkAblationStateCount(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]
	for _, states := range []int{2, 5, 10, 20} {
		b.Run(benchName("states", states), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				m, err := core.NewEWMAMarkovModel([][]float64{train}, 0.15, states, "RDG")
				if err != nil {
					b.Fatal(err)
				}
				acc = modelAccuracy(m, test)
			}
			b.ReportMetric(acc*100, "accuracy-%")
		})
	}
}

// BenchmarkAblationEWMAAlpha sweeps the Eq. 1 smoothing factor.
func BenchmarkAblationEWMAAlpha(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]
	for _, milli := range []int{50, 150, 300, 600} {
		alpha := float64(milli) / 1000
		b.Run(benchName("alpha-m", milli), func(b *testing.B) {
			var acc float64
			for i := 0; i < b.N; i++ {
				m, err := core.NewEWMAMarkovModel([][]float64{train}, alpha, 10, "RDG")
				if err != nil {
					b.Fatal(err)
				}
				acc = modelAccuracy(m, test)
			}
			b.ReportMetric(acc*100, "accuracy-%")
		})
	}
}

// BenchmarkAblationTrendFilter compares the paper's Eq. 1 EWMA long-term
// filter against Holt double-exponential smoothing on the RDG series.
func BenchmarkAblationTrendFilter(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]
	b.Run("ewma", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			m, err := core.NewEWMAMarkovModel([][]float64{train}, 0.15, 10, "RDG")
			if err != nil {
				b.Fatal(err)
			}
			acc = modelAccuracy(m, test)
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
	b.Run("holt", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			m, err := core.NewHoltMarkovModel([][]float64{train}, 0.15, 0.1, 10, "RDG")
			if err != nil {
				b.Fatal(err)
			}
			acc = modelAccuracy(m, test)
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
}

// BenchmarkAblationQuantizer compares the paper's adaptive equal-frequency
// quantization against fixed equal-width intervals, reporting the one-step
// prediction accuracy of the resulting chains on the RDG series.
func BenchmarkAblationQuantizer(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]
	predictAccuracy := func(c *markov.Chain) float64 {
		var preds, acts []float64
		for i := 1; i < len(test); i++ {
			preds = append(preds, c.ExpectedNext(test[i-1]))
			acts = append(acts, test[i])
		}
		mape, err := stats.MeanAbsPercentError(preds, acts)
		if err != nil {
			b.Fatal(err)
		}
		return 1 - mape
	}
	b.Run("equal-frequency", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			c, err := markov.Train([][]float64{train}, 10)
			if err != nil {
				b.Fatal(err)
			}
			acc = predictAccuracy(c)
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
	b.Run("equal-width", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			q, err := markov.NewEqualWidthQuantizer(train, 10)
			if err != nil {
				b.Fatal(err)
			}
			c, err := markov.TrainWithQuantizer(q, [][]float64{train})
			if err != nil {
				b.Fatal(err)
			}
			acc = predictAccuracy(c)
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
}

// BenchmarkAblationMarkovOrder contrasts the first-order chain the paper
// adopts with a second-order chain (the state-space explosion it rejects),
// reporting accuracy and the pair-state sparsity.
func BenchmarkAblationMarkovOrder(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]
	b.Run("order-1", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			c, err := markov.Train([][]float64{train}, 10)
			if err != nil {
				b.Fatal(err)
			}
			var preds, acts []float64
			for j := 1; j < len(test); j++ {
				preds = append(preds, c.ExpectedNext(test[j-1]))
				acts = append(acts, test[j])
			}
			mape, err := stats.MeanAbsPercentError(preds, acts)
			if err != nil {
				b.Fatal(err)
			}
			acc = 1 - mape
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
	b.Run("order-2", func(b *testing.B) {
		var acc, coverage float64
		for i := 0; i < b.N; i++ {
			c, err := markov.TrainOrder2([][]float64{train}, 10)
			if err != nil {
				b.Fatal(err)
			}
			var preds, acts []float64
			for j := 2; j < len(test); j++ {
				preds = append(preds, c.ExpectedNext(test[j-2], test[j-1]))
				acts = append(acts, test[j])
			}
			mape, err := stats.MeanAbsPercentError(preds, acts)
			if err != nil {
				b.Fatal(err)
			}
			acc = 1 - mape
			coverage = float64(c.ObservedPairs()) / float64(c.PairStates())
		}
		b.ReportMetric(acc*100, "accuracy-%")
		b.ReportMetric(coverage*100, "pair-coverage-%")
	})
}

// BenchmarkAblationBaselines scores the Triple-C composite model against
// the last-value and worst-case baselines on the RDG series, reporting each
// variant's accuracy plus the worst-case model's average over-reservation.
func BenchmarkAblationBaselines(b *testing.B) {
	setup(b)
	series := benchSetup.rdgSeries
	train, test := series[:150], series[150:]
	b.Run("triple-c", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			m, err := core.NewEWMAMarkovModel([][]float64{train}, 0.15, 10, "RDG")
			if err != nil {
				b.Fatal(err)
			}
			acc = modelAccuracy(m, test)
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
	b.Run("last-value", func(b *testing.B) {
		var acc float64
		for i := 0; i < b.N; i++ {
			m, err := core.NewLastValueModel(train)
			if err != nil {
				b.Fatal(err)
			}
			acc = modelAccuracy(m, test)
		}
		b.ReportMetric(acc*100, "accuracy-%")
	})
	b.Run("worst-case", func(b *testing.B) {
		var acc, waste float64
		for i := 0; i < b.N; i++ {
			m, err := core.NewWorstCaseModel(train)
			if err != nil {
				b.Fatal(err)
			}
			acc = modelAccuracy(m, test)
			w, err := core.OverReservation(m.Worst, test)
			if err != nil {
				b.Fatal(err)
			}
			waste = w
		}
		b.ReportMetric(acc*100, "accuracy-%")
		b.ReportMetric(waste*100, "over-reservation-%")
	})
}

// BenchmarkAblationStickyPlanning measures the repartition churn with and
// without mapping hysteresis.
func BenchmarkAblationStickyPlanning(b *testing.B) {
	setup(b)
	s := benchSetup.study
	for _, sticky := range []bool{false, true} {
		name := "churny"
		if sticky {
			name = "sticky"
		}
		b.Run(name, func(b *testing.B) {
			var repartitions float64
			for i := 0; i < b.N; i++ {
				mgr, err := sched.NewManager(benchSetup.predictor, s.Arch)
				if err != nil {
					b.Fatal(err)
				}
				mgr.Sticky = sticky
				eng, err := s.Engine()
				if err != nil {
					b.Fatal(err)
				}
				res, err := sched.RunManaged(eng, mgr, 40, experiments.Source(benchSetup.seq), s.FramePixels())
				if err != nil {
					b.Fatal(err)
				}
				n := 0
				for _, d := range res.Decisions {
					if d.Repartition {
						n++
					}
				}
				repartitions = float64(n)
			}
			b.ReportMetric(repartitions, "repartitions/40f")
		})
	}
}

// BenchmarkAblationWorstCaseMapping contrasts the paper's rejected
// worst-case static partitioning against the prediction-driven one: it
// reports the average over-provisioned core-milliseconds per frame.
func BenchmarkAblationWorstCaseMapping(b *testing.B) {
	setup(b)
	s := benchSetup.study
	eng, err := s.Engine()
	if err != nil {
		b.Fatal(err)
	}
	src := experiments.Source(benchSetup.seq)
	var lat float64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rep, err := eng.Process(src(i%200), nil)
		if err != nil {
			b.Fatal(err)
		}
		lat = rep.LatencyMs
	}
	b.ReportMetric(lat, "serial-ms")
}

// BenchmarkRealStripedRDG measures actual goroutine-striped ridge detection
// on the host — the wall-clock counterpart of the machine model's striping
// assumption. Compare the k sub-benches to see the real speedup (on a
// single-core host the times stay flat; the stripes still produce
// bit-identical results, see TestRunStripedMatchesRun).
func BenchmarkRealStripedRDG(b *testing.B) {
	cfg := synth.DefaultConfig(55)
	cfg.Width, cfg.Height = 512, 512
	cfg.MarkerSpacing = 80
	seq, err := synth.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	f, _ := seq.Frame(0)
	rdg := tasks.NewRidgeDetector(tasks.DefaultCostParams(512 * 512))
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(benchName("k", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if res, _ := rdg.RunStriped(f, k); res.Mask == nil {
					b.Fatal("no mask")
				}
			}
		})
	}
}

// BenchmarkKernel measures the per-frame task kernels on real synthetic
// frames: the two behind the paper's first switch — DETECT
// (StructureDetector.Run, the per-frame structure pre-scan) and the RDG sweep
// (RidgeDetector.Run, blur plus Hessian response plus mask) on the whole
// frame and on its central quarter, the ROI variant — then MKX EXT
// (MarkerExtractor.Run without a ridge mask) and ENH (Enhancer.Run on eight
// consecutive frames in turn, each with its true marker couple, into one
// steadily growing stack), at 128x128 and 512x512:
// BenchmarkKernel/<task>/<size>-<procs>.
func BenchmarkKernel(b *testing.B) {
	for _, size := range []int{128, 512} {
		cfg := synth.DefaultConfig(55)
		cfg.Width, cfg.Height = size, size
		seq, err := synth.New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		f, _ := seq.Frame(20)
		roi := f.SubFrame(frame.R(size/4, size/4, 3*size/4, 3*size/4))
		p := tasks.DefaultCostParams(size * size)
		det, rdg := tasks.NewStructureDetector(p), tasks.NewRidgeDetector(p)
		mkx, enh := tasks.NewMarkerExtractor(p), tasks.NewEnhancer(size, size, p)
		ridge := func(in *frame.Frame) func() {
			return func() {
				res, _ := rdg.Run(in)
				frame.Release(res.Mask)
			}
		}
		var frames [8]*frame.Frame
		var couples [8]tasks.Couple
		for i := range frames {
			var tr synth.Truth
			frames[i], tr = seq.Frame(20 + i)
			a := tasks.Marker{X: tr.MarkerA[0], Y: tr.MarkerA[1]}
			c := tasks.Marker{X: tr.MarkerB[0], Y: tr.MarkerB[1]}
			couples[i] = tasks.Couple{A: a, B: c, Spacing: a.Dist(c)}
		}
		next := 0
		cases := []struct {
			name string
			run  func()
		}{
			{"DETECT", func() { det.Run(f) }},
			{"RDG_FULL", ridge(f)},
			{"RDG_ROI", ridge(roi)},
			{"MKX_EXT", func() { mkx.Run(f, nil) }},
			{"ENH", func() {
				enh.Run(frames[next], &couples[next])
				next = (next + 1) % len(frames)
			}},
		}
		for _, tc := range cases {
			b.Run(fmt.Sprintf("%s/%dx%d", tc.name, size, size), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					tc.run()
				}
			})
		}
	}
}

// BenchmarkMultiStreamThroughput measures the wall-clock aggregate
// throughput of the concurrent serving layer (internal/stream) as the
// stream count grows from 1 up to the host's core count. Each stream gets
// its own engine, trained predictor and manager; the global controller
// re-divides the modeled machine between them every few frames. Reported
// metrics: aggregate processed frames per wall-clock second and the worst
// per-stream deadline-miss rate.
func BenchmarkMultiStreamThroughput(b *testing.B) {
	setup(b)
	s := benchSetup.study
	counts := []int{1}
	for c := 2; c <= runtime.NumCPU(); c *= 2 {
		counts = append(counts, c)
	}
	if last := counts[len(counts)-1]; last != runtime.NumCPU() {
		counts = append(counts, runtime.NumCPU())
	}
	for _, nStreams := range counts {
		b.Run(benchName("streams", nStreams), func(b *testing.B) {
			var fps, worstMiss float64
			for i := 0; i < b.N; i++ {
				cfgs := make([]stream.Config, nStreams)
				for j := range cfgs {
					st, err := s.ServedStream(uint64(1000+31*j), 0)
					if err != nil {
						b.Fatal(err)
					}
					cfgs[j] = stream.Config{
						Name:        benchName("s", j),
						Engine:      st.Engine,
						Manager:     st.Manager,
						Source:      st.Source,
						FramePixels: s.FramePixels(),
					}
				}
				srv, err := stream.NewServer(stream.ServerConfig{}, cfgs)
				if err != nil {
					b.Fatal(err)
				}
				res, err := srv.Run(40)
				if err != nil {
					b.Fatal(err)
				}
				fps = res.AggregateFPS
				worstMiss = 0
				for _, r := range res.Streams {
					if m := r.Stats.MissRate(); m > worstMiss {
						worstMiss = m
					}
				}
			}
			b.ReportMetric(fps, "frames/s")
			b.ReportMetric(worstMiss*100, "worst-miss-%")
		})
	}
}

// BenchmarkExperimentRegistry smoke-runs the cheap experiment printers.
func BenchmarkExperimentRegistry(b *testing.B) {
	study := experiments.DefaultStudy()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(io.Discard, study, "table1"); err != nil {
			b.Fatal(err)
		}
		if err := experiments.Run(io.Discard, study, "fig2"); err != nil {
			b.Fatal(err)
		}
	}
}

func benchName(prefix string, v int) string {
	// strconv-free small helper keeps the bench table tidy.
	digits := ""
	if v == 0 {
		digits = "0"
	}
	for v > 0 {
		digits = string(rune('0'+v%10)) + digits
		v /= 10
	}
	return prefix + "-" + digits
}
