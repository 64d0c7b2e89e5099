package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"runtime"
	"sync"
	"time"

	"triplec/internal/core"
	"triplec/internal/experiments"
	"triplec/internal/mapping"
	"triplec/internal/metrics"
	"triplec/internal/promote"
	"triplec/internal/sched"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/span"
	"triplec/internal/stream"
	"triplec/internal/trace"
)

// runServe implements the `triplec serve` subcommand: it trains the
// Triple-C models once, then serves N independent synthetic streams
// concurrently under the global core arbiter and prints the per-stream
// serving statistics. With -metrics-addr it also exposes the live telemetry
// layer over HTTP while the run is in flight.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	streams := fs.Int("streams", 2, "number of concurrent streams")
	frames := fs.Int("frames", 120, "frames to serve per stream")
	seed := fs.Uint64("seed", 7, "base synthetic-sequence seed")
	train := fs.Int("train", 4, "training sequences")
	cores := fs.Int("cores", 0, "modeled machine cores to arbitrate (0 = platform default)")
	workers := fs.Int("workers", 0, "host worker-pool size (0 = GOMAXPROCS)")
	rebalance := fs.Int("rebalance", 4, "demand reports between core re-divisions")
	skipOver := fs.Float64("skip-over", 2.0, "aggregate load ratio beyond which frames are shed")
	mapperName := fs.String("mapper", "greedy",
		"core-mapping policy for re-divisions: greedy or optimizer (Pareto bi-criteria)")
	csvPath := fs.String("csv", "", "write the merged per-stream series to this CSV file")
	metricsAddr := fs.String("metrics-addr", "",
		"serve GET /metrics (Prometheus), /healthz (JSON) and /debug/pprof/ on this address")
	linger := fs.Duration("linger", 0,
		"keep the metrics endpoints up this long after the run finishes (requires -metrics-addr)")
	metricsCSV := fs.String("metrics-csv", "",
		"sample every registered instrument into this CSV during the run")
	metricsEvery := fs.Duration("metrics-every", 250*time.Millisecond,
		"sampling period for -metrics-csv")
	budgetMs := fs.Float64("budget-ms", 0,
		"per-frame latency budget in ms (0 = initialize from the first processed frame)")
	traceDir := fs.String("trace-dir", "",
		"enable per-frame span tracing; write triggered flight-recorder dumps (Chrome trace-event JSON) into this directory")
	traceRelErr := fs.Float64("trace-relerr", 0.75,
		"prediction relative-error trigger threshold for the flight recorder (0 disables)")
	shadowOn := fs.Bool("shadow", false,
		"race alternative prediction backends against the deployed predictor per stream; scoreboard on /debug/predictorz and per-backend /metrics families (zero influence on scheduling)")
	predictor := fs.String("predictor", "baseline",
		"prediction backend policy: baseline (no promotion), auto (guarded promotion of whichever shadow backend beats the baseline), or a shadow backend name to canary directly; non-baseline implies -shadow")
	canaryFrac := fs.Float64("canary-frac", 0.25,
		"fraction of streams steered by the challenger during the canary stage")
	guardMissRate := fs.Float64("guard-miss-rate", 0.25,
		"rolling deadline-miss rate on steered streams beyond which the promotion rolls back")
	adaptiveGuards := fs.Bool("adaptive-guards", false,
		"derive the promotion guardrail thresholds from the baseline predictor's trailing windows instead of the fixed flags")
	sloOn := fs.Bool("slo", false,
		"track frame-latency cause attribution and multi-window SLO burn rates; status in /healthz, scoreboard on /debug/sloz, triplec_slo_* metric families (requires -metrics-addr or -metrics-csv)")
	sloExemplars := fs.Bool("slo-exemplars", false,
		"attach OpenMetrics exemplars (frame index + flight-recorder dump) to the frame-latency histograms; implies -slo")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *streams < 1 {
		return fmt.Errorf("serve: need at least one stream, got %d", *streams)
	}
	if *linger > 0 && *metricsAddr == "" {
		return fmt.Errorf("serve: -linger needs -metrics-addr")
	}
	if *metricsCSV != "" && *metricsEvery <= 0 {
		return fmt.Errorf("serve: -metrics-every must be positive, got %v", *metricsEvery)
	}
	if *budgetMs < 0 {
		return fmt.Errorf("serve: -budget-ms %v must be non-negative", *budgetMs)
	}
	if *predictor == core.BackendBaseline {
		*predictor = "baseline"
	}
	if *predictor != "baseline" && !*shadowOn {
		// Promotion scores challengers on the bake-off boards, so it
		// needs them racing.
		*shadowOn = true
	}
	if *sloExemplars {
		*sloOn = true
	}
	if *sloOn && *metricsAddr == "" && *metricsCSV == "" {
		return fmt.Errorf("serve: -slo needs the telemetry layer (-metrics-addr or -metrics-csv)")
	}

	study := experiments.ServingStudy(*train)

	var mapper sched.Mapper
	switch *mapperName {
	case "greedy":
		// nil Mapper: MultiManager runs its built-in greedy division.
	case "optimizer":
		opt, err := mapping.NewOptimizer(study.Arch)
		if err != nil {
			return err
		}
		mapper = opt
	default:
		return fmt.Errorf("serve: unknown -mapper %q (want greedy or optimizer)", *mapperName)
	}

	fmt.Printf("training Triple-C on %d sequences x %d frames...\n", study.TrainSeqs, study.TrainFrames)
	var boards []*shadow.Board
	cfgs := make([]stream.Config, *streams)
	for i := range cfgs {
		st, err := study.ServedStream(*seed, i)
		if err != nil {
			return err
		}
		cfgs[i] = stream.Config{
			Name:        fmt.Sprintf("stream%d", i),
			Engine:      st.Engine,
			Manager:     st.Manager,
			Source:      st.Source,
			FramePixels: study.FramePixels(),
			BudgetMs:    *budgetMs,
		}
		if *shadowOn {
			board, err := shadow.NewStreamBoard(cfgs[i].Name, st.Manager.Predictor(), st.Corpus, false)
			if err != nil {
				return err
			}
			boards = append(boards, board)
			cfgs[i].Shadow = board
		}
	}

	var ctl *promote.Controller
	if *predictor != "baseline" {
		pcfg := promote.Config{
			Challenger:     *predictor, // "auto" means watch the whole roster
			CanaryFrac:     *canaryFrac,
			MaxMissRate:    *guardMissRate,
			AdaptiveGuards: *adaptiveGuards,
		}
		var err error
		if ctl, err = promote.NewController(pcfg); err != nil {
			return fmt.Errorf("serve: %w", err)
		}
	}

	var flight *span.FlightRecorder
	if *traceDir != "" {
		trig := span.DefaultTriggers()
		trig.RelErr = *traceRelErr
		fr, err := span.NewFlightRecorder(*traceDir, trig)
		if err != nil {
			return err
		}
		flight = fr
	}
	var reg *metrics.Registry
	if *metricsAddr != "" || *metricsCSV != "" {
		reg = metrics.NewRegistry()
		if _, err := metrics.NewRuntimeMetrics(reg); err != nil {
			return err
		}
		for _, b := range boards {
			if err := b.EnableMetrics(reg); err != nil {
				return err
			}
		}
	}
	var tracker *slo.Tracker
	if *sloOn {
		tracker = slo.NewTracker(slo.Config{Streams: *streams})
		names := make([]string, len(cfgs))
		for i := range cfgs {
			names[i] = cfgs[i].Name
		}
		if err := tracker.EnableMetrics(reg, names); err != nil {
			return err
		}
	}
	srv, err := stream.NewServer(stream.ServerConfig{
		ModelCores:     *cores,
		HostWorkers:    *workers,
		RebalanceEvery: *rebalance,
		SkipOver:       *skipOver,
		Mapper:         mapper,
		Metrics:        reg,
		Flight:         flight,
		Promote:        ctl,
		SLO:            tracker,
		SLOExemplars:   *sloExemplars,
	}, cfgs)
	if err != nil {
		return err
	}
	if ctl != nil && reg != nil {
		// After NewServer: EnableMetrics needs the attached roster to name
		// the per-backend strike counters.
		if err := ctl.EnableMetrics(reg); err != nil {
			return err
		}
	}

	// Bring the telemetry endpoints up before the run so a scraper sees the
	// stream go idle -> serving -> done.
	var httpSrv *http.Server
	if *metricsAddr != "" {
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("serve: metrics listener: %w", err)
		}
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.Handler(reg))
		mux.Handle("/healthz", srv.HealthHandler())
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		if flight != nil {
			mux.Handle("/debug/tracez", flight.TracezHandler())
		}
		mux.Handle("/debug/predictorz", shadow.Handler(boards))
		if tracker != nil {
			mux.Handle("/debug/sloz", tracker.Handler())
		}
		httpSrv = &http.Server{Handler: mux}
		go func() {
			if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
				fmt.Fprintln(os.Stderr, "triplec serve: metrics server:", err)
			}
		}()
		fmt.Printf("telemetry on http://%s/metrics, /healthz, /debug/pprof/\n", ln.Addr())
	}

	// Sample the registry on a timer while the run is in flight.
	var (
		sampler *trace.Recorder
		stopCSV chan struct{}
		csvDone sync.WaitGroup
	)
	if *metricsCSV != "" {
		sampler, err = trace.NewRecorder(reg)
		if err != nil {
			return err
		}
		stopCSV = make(chan struct{})
		csvDone.Add(1)
		go func() {
			defer csvDone.Done()
			tick := time.NewTicker(*metricsEvery)
			defer tick.Stop()
			for {
				if err := sampler.Sample(); err != nil {
					fmt.Fprintln(os.Stderr, "triplec serve: metrics sampler:", err)
					return
				}
				select {
				case <-stopCSV:
					return
				case <-tick.C:
				}
			}
		}()
	}

	fmt.Printf("serving %d streams x %d frames on %d host cores...\n",
		*streams, *frames, runtime.GOMAXPROCS(0))
	res, runErr := srv.Run(*frames)

	if sampler != nil {
		close(stopCSV)
		csvDone.Wait()
		if err := sampler.Sample(); err != nil { // final post-run row
			return err
		}
		file, err := os.Create(*metricsCSV)
		if err != nil {
			return err
		}
		werr := sampler.Trace().WriteCSV(file)
		if cerr := file.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			return werr
		}
		fmt.Println("wrote", *metricsCSV)
	}
	if runErr != nil {
		return runErr
	}

	fmt.Printf("\n%-10s %9s %9s %9s %9s %9s %11s %11s %9s\n",
		"stream", "processed", "skipped", "serial", "misses", "acct-err", "budget(ms)", "mean(ms)", "fps")
	for _, s := range res.Streams {
		st := s.Stats
		fmt.Printf("%-10s %9d %9d %9d %9d %9d %11.1f %11.1f %9.1f\n",
			st.Name, st.Processed, st.Skipped, st.SerialFallbacks, st.DeadlineMisses,
			st.AccountingErrs, st.BudgetMs, st.MeanLatencyMs, st.ThroughputFPS)
	}
	fmt.Printf("\naggregate: %.1f frames/s over %.0f ms wall clock, %d rebalances, final core split %v\n",
		res.AggregateFPS, res.WallMs, res.Rebalances, res.FinalBudgets)

	if len(boards) > 0 {
		fmt.Printf("\nshadow bake-off (deployed: %s):\n", boards[0].Deployed())
		fmt.Printf("%-10s %-16s %7s %9s %8s %13s\n",
			"stream", "backend", "frames", "accuracy", "hit%", "regret(ms)")
		for _, b := range boards {
			snap := b.Snapshot()
			for _, bs := range snap.Backends {
				fmt.Printf("%-10s %-16s %7d %8.1f%% %7.1f%% %+13.2f\n",
					snap.Stream, bs.Name, bs.Total.Count, 100*bs.Accuracy(),
					100*bs.ScenarioHitRate, bs.RegretMs)
			}
		}
	}

	if ctl != nil {
		st := ctl.Status()
		fmt.Printf("\npredictor promotion: state=%s challenger=%s canary_streams=%d transitions=%d\n",
			st.State, st.Challenger, st.CanaryStreams, st.Transitions)
		if st.Transitions > 0 {
			if err := ctl.WriteLog(os.Stdout); err != nil {
				return err
			}
		}
	}

	if tracker != nil {
		st := tracker.Status(false)
		fmt.Printf("\nSLO burn rates (%d frames):\n", st.Frame)
		for _, s := range st.SLOs {
			fmt.Printf("  %-10s objective=%.3f state=%-6s fast-burn=%.2f slow-burn=%.2f pages=%d tickets=%d\n",
				s.SLO, s.Objective, s.State, s.FastBurn, s.SlowBurn, s.Pages, s.Tickets)
		}
		fmt.Printf("fleet latency by cause: ")
		for i, c := range st.Fleet.Causes {
			if i > 0 {
				fmt.Printf(", ")
			}
			fmt.Printf("%s %.0f%%", c.Cause, 100*c.MsShare)
		}
		fmt.Println()
	}

	if flight != nil {
		dumps := flight.Dumps()
		fmt.Printf("\nflight recorder: %d dump(s) in %s\n", len(dumps), flight.Dir())
		for _, d := range dumps {
			fmt.Printf("  %s  reason=%s stream=%d frame=%d frames=%d events=%d\n",
				d.File, d.Reason, d.Stream, d.Frame, d.Frames, d.Events)
		}
		if err := flight.Err(); err != nil {
			return err
		}
	}

	if *csvPath != "" {
		merged, err := res.MergedTrace()
		if err != nil {
			return err
		}
		file, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		defer file.Close()
		if err := merged.WriteCSV(file); err != nil {
			return err
		}
		fmt.Println("wrote", *csvPath)
	}

	if httpSrv != nil {
		if *linger > 0 {
			fmt.Printf("lingering %v for scrapers...\n", *linger)
			time.Sleep(*linger)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}
	return nil
}
