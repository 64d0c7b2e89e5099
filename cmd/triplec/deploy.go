package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"

	"triplec/internal/experiments"
	"triplec/internal/span"
	"triplec/internal/stream"
)

// assemble builds the deployment (announcing the training on w) and turns
// it into the serving stack: the one place a command writes a
// stream.Config or a stream.ServerConfig. The server's shape is checked
// first, so a bad one fails before anything trains.
func assemble(dep experiments.Deployment, w io.Writer) (*experiments.Built, *stream.Server, error) {
	if err := serverShape(dep).Validate(); err != nil {
		return nil, nil, err
	}
	b, err := dep.Build(w)
	if err != nil {
		return nil, nil, err
	}
	d := &b.Deployment
	cfgs := make([]stream.Config, len(b.Streams))
	for i, st := range b.Streams {
		cfgs[i] = stream.Config{
			Name:        st.Name,
			Engine:      st.Engine,
			Manager:     st.Manager,
			Source:      st.Source,
			FramePixels: b.Study.FramePixels(),
			BudgetMs:    d.BudgetMs,
			Rebuild:     st.Rebuild,
			Shadow:      st.Board,
		}
	}
	scfg := serverShape(*d)
	scfg.Mapper, scfg.Metrics, scfg.Flight = b.Mapper, b.Registry, b.Flight
	scfg.Promote, scfg.SLO = b.Controller, b.Tracker
	srv, err := stream.NewServer(scfg, cfgs)
	if err != nil {
		return nil, nil, err
	}
	if b.Controller != nil && b.Registry != nil {
		// After NewServer: EnableMetrics needs the attached roster to name
		// the per-backend strike counters.
		if err := b.Controller.EnableMetrics(b.Registry); err != nil {
			return nil, nil, err
		}
	}
	return b, srv, nil
}

// serverShape is the part of the server configuration a deployment states
// before it is built: everything but the layers Build constructs.
func serverShape(d experiments.Deployment) stream.ServerConfig {
	return stream.ServerConfig{
		ModelCores:     d.Cores,
		HostWorkers:    d.Workers,
		RebalanceEvery: d.RebalanceEvery,
		SkipOver:       d.SkipOver,
		WatchdogMs:     d.WatchdogMs,
		StallMs:        d.StallMs,
		Supervise:      d.Supervise,
		MaxRestarts:    d.MaxRestarts,
		RestartBudget:  d.RestartBudget,
		Degrade:        d.Degrade,
		SLOExemplars:   d.SLOExemplars,
	}
}

// printAggregate writes the end-of-run aggregate line serve and chaos share.
func printAggregate(w io.Writer, res *stream.RunResult) {
	fmt.Fprintf(w, "\naggregate: %.1f frames/s over %.0f ms wall clock, %d rebalances, final core split %v\n",
		res.AggregateFPS, res.WallMs, res.Rebalances, res.FinalBudgets)
}

// printFlight lists the flight recorder's dumps, as serve and chaos report
// them.
func printFlight(w io.Writer, fr *span.FlightRecorder) {
	dumps := fr.Dumps()
	fmt.Fprintf(w, "flight recorder: %d dump(s) in %s\n", len(dumps), fr.Dir())
	for _, d := range dumps {
		fmt.Fprintf(w, "  %s  reason=%s stream=%d frame=%d frames=%d events=%d\n",
			d.File, d.Reason, d.Stream, d.Frame, d.Frames, d.Events)
	}
}

// writeFile creates path and writes it with write, reporting the first of
// the write and close errors.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// writeJSON renders v as indented JSON. The slo and promote reports are
// quantized or integral, so same-flag runs emit byte-identical documents.
func writeJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}
