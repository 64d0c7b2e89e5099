// Multistream: the serving-layer counterpart of examples/multifunction.
// Where multifunction splits the machine *statically* (each pipeline gets
// half the cores up front), this example runs several streams truly
// concurrently — one goroutine per engine over a shared bounded worker
// pool — and lets the global controller re-divide the modeled 8-core
// machine between them from their per-frame Triple-C predictions.
//
// The third stream is deliberately given a tight latency budget so its
// predicted core need exceeds any fair share: the controller responds by
// shifting cores toward it and, when the aggregate demand still exceeds the
// machine, shedding load (serial fallback, then alternate-frame skipping)
// instead of letting every stream's latency collapse.
//
// Run with:
//
//	go run ./examples/multistream
package main

import (
	"fmt"
	"log"
	"strings"

	"triplec/internal/experiments"
	"triplec/internal/metrics"
	"triplec/internal/stream"
)

func main() {
	study := experiments.ServingStudy(4)

	fmt.Println("training the shared Triple-C models once...")
	mkStream := func(name string, seed uint64, budgetMs float64) stream.Config {
		st, err := study.ServedStream(seed, 0)
		if err != nil {
			log.Fatal(err)
		}
		return stream.Config{
			Name:        name,
			Engine:      st.Engine,
			Manager:     st.Manager,
			Source:      st.Source,
			FramePixels: study.FramePixels(),
			BudgetMs:    budgetMs,
		}
	}

	cfgs := []stream.Config{
		mkStream("lab-A", 101, 0), // budget from first frame
		mkStream("lab-B", 202, 0),
		mkStream("lab-C-tight", 303, 8), // deliberately infeasible deadline
	}
	reg := metrics.NewRegistry()
	srv, err := stream.NewServer(stream.ServerConfig{RebalanceEvery: 4, Metrics: reg}, cfgs)
	if err != nil {
		log.Fatal(err)
	}

	const frames = 120
	fmt.Printf("serving %d streams x %d frames concurrently...\n\n", len(cfgs), frames)
	res, err := srv.Run(frames)
	if err != nil {
		log.Fatal(err)
	}

	for _, s := range res.Streams {
		st := s.Stats
		fmt.Printf("%-12s budget %6.1f ms | processed %3d, skipped %2d, serial-fallback %2d | mean %6.1f ms, worst %6.1f ms, miss rate %4.0f%%\n",
			st.Name, st.BudgetMs, st.Processed, st.Skipped, st.SerialFallbacks,
			st.MeanLatencyMs, st.WorstLatencyMs, 100*st.MissRate())
	}
	fmt.Printf("\naggregate %.1f frames/s, %d controller rebalances, final core split %v over the modeled %d-core machine\n",
		res.AggregateFPS, res.Rebalances, res.FinalBudgets, study.Arch.NumCPUs)

	// The merged trace lines every stream's series up frame by frame: show
	// the per-stream core allocation the controller converged to.
	merged, err := res.MergedTrace()
	if err != nil {
		log.Fatal(err)
	}
	chart, err := merged.Chart(64, 8, "lab-A_cores", "lab-C-tight_cores")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ncore allocation over time (lab-A vs lab-C-tight):\n%s", chart)

	// The same run also populated the live telemetry layer: print the
	// prediction-error summary every stream's accountant collected — the
	// paper's "statistical information of the differences between the
	// actually consumed resources and the predicted values", live.
	fmt.Println("\nprediction-error accounting (from the metrics registry):")
	for _, h := range srv.Healths() {
		fmt.Printf("%-12s state %-5s | scenario hit rate %3.0f%% | mean latency %6.1f ms, p95 %6.1f ms\n",
			h.Stream, h.State, 100*h.ScenarioHitRate, h.MeanLatencyMs, h.P95LatencyMs)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(sb.String(), "\n") {
		if strings.HasPrefix(line, "triplec_prediction_abs_error_ms_count") ||
			strings.HasPrefix(line, "triplec_scenario_predictions_") {
			fmt.Println(line)
		}
	}
}
