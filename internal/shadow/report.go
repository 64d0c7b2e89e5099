package shadow

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"triplec/internal/core"
	"triplec/internal/tasks"
)

// Schema identifies the shadow report's JSON layout; CI validates it
// before gating on the numbers.
const Schema = "triplec-shadow-v1"

// Config parameterizes a cross-validated bake-off replay. Everything that
// shaped the run is echoed into the report so two reports are comparable
// at a glance.
type Config struct {
	// Folds is the k of the k-fold split over sequences (default 3,
	// clamped to the sequence count).
	Folds int `json:"folds"`
	// Warmup is the number of unscored forecasts after each sequence reset.
	Warmup int `json:"warmup"`
	// Seed is the synthetic-corpus seed, echoed for reproducibility.
	Seed uint64 `json:"seed"`
	// Sequences and Frames describe the replayed corpus.
	Sequences int `json:"sequences"`
	Frames    int `json:"frames"`
}

// FoldReport is one fold's scoreboard.
type FoldReport struct {
	Fold          int           `json:"fold"`
	TestSequences int           `json:"testSequences"`
	Board         BoardSnapshot `json:"board"`
}

// Report is the bake-off result: the cross-fold aggregate per backend
// (index 0 = deployed baseline, the regret reference) plus the per-fold
// boards. Fully deterministic for a fixed corpus — no timestamps, no map
// iteration — so same-seed runs are byte-identical.
type Report struct {
	Schema   string            `json:"schema"`
	Config   Config            `json:"config"`
	Backends []BackendSnapshot `json:"backends"`
	Folds    []FoldReport      `json:"folds"`
}

// CrossValidate runs the k-fold bake-off: each fold holds out the
// sequences with index ≡ fold (mod k) as the test set, trains the
// deployed predictor and the full backend roster on the rest, and replays
// the held-out sequences through a scoreboard.
func CrossValidate(sequences [][]core.Observation, cfg Config) (*Report, error) {
	if len(sequences) < 2 {
		return nil, errors.New("shadow: cross-validation needs at least two sequences")
	}
	k := cfg.Folds
	if k <= 1 {
		k = 3
	}
	if k > len(sequences) {
		k = len(sequences)
	}
	cfg.Folds = k
	cfg.Sequences = len(sequences)
	cfg.Frames = 0
	for _, s := range sequences {
		cfg.Frames += len(s)
	}

	rep := &Report{Schema: Schema, Config: cfg}
	var agg aggregator
	for f := 0; f < k; f++ {
		train, test := core.SplitFold(sequences, k, f)
		deployed, err := core.Train(train, core.TrainConfig{})
		if err != nil {
			return nil, fmt.Errorf("shadow: fold %d: %w", f, err)
		}
		deployed.ResetOnline()
		backends, err := TrainBackends(deployed, train, core.TrainConfig{})
		if err != nil {
			return nil, fmt.Errorf("shadow: fold %d: %w", f, err)
		}
		board, err := NewBoard("crossval", backends)
		if err != nil {
			return nil, err
		}
		board.SetWarmup(cfg.Warmup)
		for _, seq := range test {
			board.ResetSequence()
			for i := range seq {
				board.ObserveFrame(&seq[i])
			}
		}
		snap := board.Snapshot()
		rep.Folds = append(rep.Folds, FoldReport{Fold: f, TestSequences: len(test), Board: snap})
		if err := agg.add(snap); err != nil {
			return nil, err
		}
	}
	rep.Backends = agg.result()
	return rep, nil
}

// aggregator merges fold snapshots into cross-fold backend aggregates,
// using fixed-size index/task arrays so the output order never depends on
// map iteration.
type aggregator struct {
	names     []string
	hits      []uint64
	misses    []uint64
	degen     []uint64
	regret    []float64
	total     []CellStats
	scenarios [][8]CellStats
	tasksAgg  [][tasks.NumNames]CellStats
}

func (a *aggregator) add(snap BoardSnapshot) error {
	if a.names == nil {
		n := len(snap.Backends)
		a.names = make([]string, n)
		a.hits = make([]uint64, n)
		a.misses = make([]uint64, n)
		a.degen = make([]uint64, n)
		a.regret = make([]float64, n)
		a.total = make([]CellStats, n)
		a.scenarios = make([][8]CellStats, n)
		a.tasksAgg = make([][tasks.NumNames]CellStats, n)
		for i, b := range snap.Backends {
			a.names[i] = b.Name
		}
	}
	if len(snap.Backends) != len(a.names) {
		return errors.New("shadow: fold backend rosters differ")
	}
	for i, b := range snap.Backends {
		if b.Name != a.names[i] {
			return fmt.Errorf("shadow: fold backend order differs at %d: %s vs %s", i, b.Name, a.names[i])
		}
		a.hits[i] += b.ScenarioHits
		a.misses[i] += b.ScenarioMisses
		a.degen[i] += b.Degenerate
		a.regret[i] += b.RegretMs
		a.total[i].merge(b.Total)
		for _, s := range b.Scenarios {
			a.scenarios[i][s.Index].merge(s.Total)
		}
		for _, t := range b.Tasks {
			ti := tasks.IndexOf(tasks.Name(t.Task))
			if ti >= 0 {
				a.tasksAgg[i][ti].merge(t.Stats)
			}
		}
	}
	return nil
}

func (a *aggregator) result() []BackendSnapshot {
	taskNames := tasks.AllNames()
	out := make([]BackendSnapshot, 0, len(a.names))
	for i, name := range a.names {
		bs := BackendSnapshot{
			Name:           name,
			ScenarioHits:   a.hits[i],
			ScenarioMisses: a.misses[i],
			Degenerate:     a.degen[i],
			RegretMs:       a.regret[i],
			Total:          a.total[i],
		}
		if t := a.hits[i] + a.misses[i]; t > 0 {
			bs.ScenarioHitRate = float64(a.hits[i]) / float64(t)
		}
		for si := 0; si < 8; si++ {
			if a.scenarios[i][si].Count > 0 {
				bs.Scenarios = append(bs.Scenarios, ScenarioStats{
					Index: si, Scenario: scenarioLabel(si), Total: a.scenarios[i][si],
				})
			}
		}
		for ti := 0; ti < tasks.NumNames; ti++ {
			if a.tasksAgg[i][ti].Count > 0 {
				bs.Tasks = append(bs.Tasks, TaskStats{Task: string(taskNames[ti]), Stats: a.tasksAgg[i][ti]})
			}
		}
		out = append(out, bs)
	}
	return out
}

// WriteJSON writes the report as indented JSON (deterministic: field
// order is fixed by the struct definitions, slices by construction).
func (r *Report) WriteJSON(w io.Writer) error {
	blob, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	blob = append(blob, '\n')
	_, err = w.Write(blob)
	return err
}

// WriteText renders the human-readable scoreboard tables.
func (r *Report) WriteText(w io.Writer) error {
	frames := uint64(0)
	for _, f := range r.Folds {
		frames += f.Board.FramesScored
	}
	fmt.Fprintf(w, "shadow bake-off: %d backends, %d folds, %d sequences, %d frames scored (seed %d)\n",
		len(r.Backends), r.Config.Folds, r.Config.Sequences, frames, r.Config.Seed)
	fmt.Fprintf(w, "regret reference: %s (deployed)\n\n", r.deployedName())

	fmt.Fprintf(w, "%-16s %7s %7s %8s %8s %7s %12s %6s\n",
		"backend", "frames", "acc", "bias", "maxrel", "hit%", "regret/frame", "degen")
	for _, b := range r.Backends {
		regretPerFrame := 0.0
		if b.Total.Count > 0 {
			regretPerFrame = b.RegretMs / float64(b.Total.Count)
		}
		fmt.Fprintf(w, "%-16s %7d %6.1f%% %+7.1f%% %7.1f%% %6.1f%% %+11.3f‰ %6d\n",
			b.Name, b.Total.Count, 100*b.Accuracy(), 100*b.Total.MeanSignedRel,
			100*b.Total.MaxAbsRel, 100*b.ScenarioHitRate, regretPerFrame, b.Degenerate)
	}

	// Per-scenario mean |rel| matrix: rows scenario, columns backends.
	fmt.Fprintf(w, "\nmean |rel error| of the total forecast per scenario:\n")
	fmt.Fprintf(w, "%-24s", "scenario")
	for _, b := range r.Backends {
		fmt.Fprintf(w, " %15s", clip(b.Name, 15))
	}
	fmt.Fprintln(w)
	for si := 0; si < 8; si++ {
		row := make([]string, 0, len(r.Backends))
		any := false
		for _, b := range r.Backends {
			cellStr := "      -"
			for _, s := range b.Scenarios {
				if s.Index == si {
					cellStr = fmt.Sprintf("%6.1f%%", 100*s.Total.MeanAbsRel)
					any = true
					break
				}
			}
			row = append(row, cellStr)
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "%-24s", scenarioLabel(si))
		for _, c := range row {
			fmt.Fprintf(w, " %15s", c)
		}
		fmt.Fprintln(w)
	}

	// Per-task mean |rel| matrix.
	fmt.Fprintf(w, "\nmean |rel error| per task:\n")
	fmt.Fprintf(w, "%-24s", "task")
	for _, b := range r.Backends {
		fmt.Fprintf(w, " %15s", clip(b.Name, 15))
	}
	fmt.Fprintln(w)
	for _, task := range tasks.AllNames() {
		row := make([]string, 0, len(r.Backends))
		any := false
		for _, b := range r.Backends {
			cellStr := "      -"
			for _, t := range b.Tasks {
				if t.Task == string(task) {
					cellStr = fmt.Sprintf("%6.1f%%", 100*t.Stats.MeanAbsRel)
					any = true
					break
				}
			}
			row = append(row, cellStr)
		}
		if !any {
			continue
		}
		fmt.Fprintf(w, "%-24s", task)
		for _, c := range row {
			fmt.Fprintf(w, " %15s", c)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func (r *Report) deployedName() string {
	if len(r.Folds) > 0 {
		return r.Folds[0].Board.Deployed
	}
	if len(r.Backends) > 0 {
		return r.Backends[0].Name
	}
	return "?"
}

func clip(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Check validates the report the way the CI smoke job gates on it: schema
// tag, a roster of at least four backends with scored frames, and the
// deployed baseline no less accurate than minAcc.
func (r *Report) Check(minAcc float64) error {
	if r.Schema != Schema {
		return fmt.Errorf("shadow: unexpected schema %q (want %q)", r.Schema, Schema)
	}
	if len(r.Backends) < 4 {
		return fmt.Errorf("shadow: report covers %d backends, want at least 4", len(r.Backends))
	}
	seen := map[string]bool{}
	for _, b := range r.Backends {
		if seen[b.Name] {
			return fmt.Errorf("shadow: duplicate backend %q in report", b.Name)
		}
		seen[b.Name] = true
		if b.Total.Count == 0 {
			return fmt.Errorf("shadow: backend %q scored no frames", b.Name)
		}
	}
	base := r.Backends[0]
	if !strings.EqualFold(base.Name, core.BackendBaseline) {
		return fmt.Errorf("shadow: baseline slot holds %q, want %q", base.Name, core.BackendBaseline)
	}
	if acc := base.Accuracy(); acc < minAcc {
		return fmt.Errorf("shadow: baseline accuracy %.3f below floor %.3f", acc, minAcc)
	}
	return nil
}
