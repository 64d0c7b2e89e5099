package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	_ "net/http/pprof"
	"os"
	"runtime"
	"strings"
	"time"

	"triplec/internal/experiments"
	"triplec/internal/metrics"
	"triplec/internal/shadow"
	"triplec/internal/slo"
	"triplec/internal/stream"
	"triplec/internal/trace"
)

// runServe implements the `triplec serve` subcommand: it trains the
// Triple-C models once, then serves N independent synthetic streams
// concurrently under the global core arbiter and prints the per-stream
// serving statistics. With -metrics-addr it also exposes the live telemetry
// layer over HTTP while the run is in flight.
func runServe(args []string, stdout io.Writer) error {
	var d experiments.Deployment
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	fs.IntVar(&d.Streams, "streams", 2, "number of concurrent streams")
	fs.IntVar(&d.Frames, "frames", 120, "frames to serve per stream")
	fs.Uint64Var(&d.Seed, "seed", 7, "base synthetic-sequence seed")
	fs.IntVar(&d.Train, "train", 4, "training sequences")
	fs.IntVar(&d.Cores, "cores", 0, "modeled machine cores to arbitrate (0 = platform default)")
	fs.IntVar(&d.Workers, "workers", 0, "host worker-pool size (0 = GOMAXPROCS)")
	fs.IntVar(&d.RebalanceEvery, "rebalance", 4, "demand reports between core re-divisions")
	fs.Float64Var(&d.SkipOver, "skip-over", 2.0, "aggregate load ratio beyond which frames are shed")
	fs.StringVar(&d.Mapper, "mapper", "greedy",
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
	fs.Float64Var(&d.BudgetMs, "budget-ms", 0,
		"per-frame latency budget in ms (0 = initialize from the first processed frame)")
	fs.StringVar(&d.TraceDir, "trace-dir", "",
		"enable per-frame span tracing; write triggered flight-recorder dumps (Chrome trace-event JSON) into this directory")
	fs.Float64Var(&d.TraceRelErr, "trace-relerr", 0.75,
		"prediction relative-error trigger threshold for the flight recorder (0 disables)")
	fs.BoolVar(&d.Shadow, "shadow", false,
		"race alternative prediction backends against the deployed predictor per stream; scoreboard on /debug/predictorz and per-backend /metrics families (zero influence on scheduling)")
	fs.StringVar(&d.Predictor, "predictor", "baseline",
		"prediction backend policy: baseline (no promotion), auto (guarded promotion of whichever shadow backend beats the baseline), or a shadow backend name to canary directly; non-baseline implies -shadow")
	fs.Float64Var(&d.Promote.CanaryFrac, "canary-frac", 0.25,
		"fraction of streams steered by the challenger during the canary stage")
	fs.Float64Var(&d.Promote.MaxMissRate, "guard-miss-rate", 0.25,
		"rolling deadline-miss rate on steered streams beyond which the promotion rolls back")
	fs.BoolVar(&d.Promote.AdaptiveGuards, "adaptive-guards", false,
		"derive the promotion guardrail thresholds from the baseline predictor's trailing windows instead of the fixed flags")
	sloOn := fs.Bool("slo", false,
		"track frame-latency cause attribution and multi-window SLO burn rates; status in /healthz, scoreboard on /debug/sloz, triplec_slo_* metric families (requires -metrics-addr or -metrics-csv)")
	fs.BoolVar(&d.SLOExemplars, "slo-exemplars", false,
		"attach OpenMetrics exemplars (frame index + flight-recorder dump) to the frame-latency histograms; implies -slo")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *linger > 0 && *metricsAddr == "" {
		return errors.New("-linger needs -metrics-addr")
	}
	if *metricsCSV != "" && *metricsEvery <= 0 {
		return fmt.Errorf("-metrics-every must be positive, got %v", *metricsEvery)
	}
	d.Metrics = *metricsAddr != "" || *metricsCSV != ""
	if *sloOn || d.SLOExemplars {
		if !d.Metrics {
			return errors.New("-slo needs the telemetry layer (-metrics-addr or -metrics-csv)")
		}
		d.SLO = &slo.Config{}
	}

	b, srv, err := assemble(d, stdout)
	if err != nil {
		return err
	}
	// Bring the telemetry endpoints up before the run so a scraper sees the
	// stream go idle -> serving -> done.
	var httpSrv *http.Server
	if *metricsAddr != "" {
		if httpSrv, err = serveTelemetry(stdout, *metricsAddr, b, srv); err != nil {
			return err
		}
	}
	var finishCSV func(string) error
	if *metricsCSV != "" {
		if finishCSV, err = sampleMetrics(b.Registry, *metricsEvery); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "serving %d streams x %d frames on %d host cores...\n",
		d.Streams, d.Frames, runtime.GOMAXPROCS(0))
	res, runErr := srv.Run(d.Frames)
	if finishCSV != nil {
		if err := finishCSV(*metricsCSV); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *metricsCSV)
	}
	if runErr != nil {
		return runErr
	}

	fmt.Fprintf(stdout, "\n%-10s %9s %9s %9s %9s %9s %11s %11s %9s\n",
		"stream", "processed", "skipped", "serial", "misses", "acct-err", "budget(ms)", "mean(ms)", "fps")
	for _, s := range res.Streams {
		st := s.Stats
		fmt.Fprintf(stdout, "%-10s %9d %9d %9d %9d %9d %11.1f %11.1f %9.1f\n",
			st.Name, st.Processed, st.Skipped, st.SerialFallbacks, st.DeadlineMisses,
			st.AccountingErrs, st.BudgetMs, st.MeanLatencyMs, st.ThroughputFPS)
	}
	printAggregate(stdout, &res)
	if err := printLayers(stdout, b); err != nil {
		return err
	}

	if *csvPath != "" {
		merged, err := res.MergedTrace()
		if err != nil {
			return err
		}
		if err := writeFile(*csvPath, merged.WriteCSV); err != nil {
			return err
		}
		fmt.Fprintln(stdout, "wrote", *csvPath)
	}

	if httpSrv != nil {
		if *linger > 0 {
			fmt.Fprintf(stdout, "lingering %v for scrapers...\n", *linger)
			time.Sleep(*linger)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(ctx)
	}
	return nil
}

// printLayers writes serve's end-of-run report of the optional layers that
// are on: the shadow bake-off, the promotion state, the SLO burn rates and
// the flight recorder's dumps.
func printLayers(w io.Writer, b *experiments.Built) error {
	if b.Deployment.Shadow {
		fmt.Fprintf(w, "\nshadow bake-off (deployed: %s):\n", b.Streams[0].Board.Deployed())
		fmt.Fprintf(w, "%-10s %-16s %7s %9s %8s %13s\n",
			"stream", "backend", "frames", "accuracy", "hit%", "regret(ms)")
		for _, st := range b.Streams {
			snap := st.Board.Snapshot()
			for _, bs := range snap.Backends {
				fmt.Fprintf(w, "%-10s %-16s %7d %8.1f%% %7.1f%% %+13.2f\n",
					snap.Stream, bs.Name, bs.Total.Count, 100*bs.Accuracy(),
					100*bs.ScenarioHitRate, bs.RegretMs)
			}
		}
	}
	if ctl := b.Controller; ctl != nil {
		st := ctl.Status()
		fmt.Fprintf(w, "\npredictor promotion: state=%s challenger=%s canary_streams=%d transitions=%d\n",
			st.State, st.Challenger, st.CanaryStreams, st.Transitions)
		if st.Transitions > 0 {
			if err := ctl.WriteLog(w); err != nil {
				return err
			}
		}
	}
	if b.Tracker != nil {
		st := b.Tracker.Status(false)
		fmt.Fprintf(w, "\nSLO burn rates (%d frames):\n", st.Frame)
		for _, s := range st.SLOs {
			fmt.Fprintf(w, "  %-10s objective=%.3f state=%-6s fast-burn=%.2f slow-burn=%.2f pages=%d tickets=%d\n",
				s.SLO, s.Objective, s.State, s.FastBurn, s.SlowBurn, s.Pages, s.Tickets)
		}
		causes := make([]string, len(st.Fleet.Causes))
		for i, c := range st.Fleet.Causes {
			causes[i] = fmt.Sprintf("%s %.0f%%", c.Cause, 100*c.MsShare)
		}
		fmt.Fprintf(w, "fleet latency by cause: %s\n", strings.Join(causes, ", "))
	}
	if b.Flight != nil {
		fmt.Fprintln(w)
		printFlight(w, b.Flight)
		return b.Flight.Err()
	}
	return nil
}

// serveTelemetry mounts /metrics, /healthz, the pprof handlers and the
// debug pages of the layers that are on, and serves them on addr.
func serveTelemetry(w io.Writer, addr string, b *experiments.Built, srv *stream.Server) (*http.Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("metrics listener: %w", err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", metrics.Handler(b.Registry))
	mux.Handle("/healthz", srv.HealthHandler())
	// The net/http/pprof import registers its handlers on the default mux.
	mux.Handle("/debug/pprof/", http.DefaultServeMux)
	if b.Flight != nil {
		mux.Handle("/debug/tracez", b.Flight.TracezHandler())
	}
	var boards []*shadow.Board
	for _, st := range b.Streams {
		if st.Board != nil {
			boards = append(boards, st.Board)
		}
	}
	mux.Handle("/debug/predictorz", shadow.Handler(boards))
	if b.Tracker != nil {
		mux.Handle("/debug/sloz", b.Tracker.Handler())
	}
	httpSrv := &http.Server{Handler: mux}
	go func() {
		if err := httpSrv.Serve(ln); err != nil && err != http.ErrServerClosed {
			fmt.Fprintln(os.Stderr, "triplec serve: metrics server:", err)
		}
	}()
	fmt.Fprintf(w, "telemetry on http://%s/metrics, /healthz, /debug/pprof/\n", ln.Addr())
	return httpSrv, nil
}

// sampleMetrics samples reg every period on a goroutine until the returned
// finish stops it, takes a final post-run row and writes the CSV to path.
func sampleMetrics(reg *metrics.Registry, every time.Duration) (finish func(path string) error, err error) {
	rec, err := trace.NewRecorder(reg)
	if err != nil {
		return nil, err
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			if err := rec.Sample(); err != nil {
				fmt.Fprintln(os.Stderr, "triplec serve: metrics sampler:", err)
				return
			}
			select {
			case <-stop:
				return
			case <-tick.C:
			}
		}
	}()
	return func(path string) error {
		close(stop)
		<-done
		if err := rec.Sample(); err != nil {
			return err
		}
		return writeFile(path, rec.Trace().WriteCSV)
	}, nil
}
