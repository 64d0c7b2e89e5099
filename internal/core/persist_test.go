package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"triplec/internal/flowgraph"
	"triplec/internal/tasks"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for ti := range p.Models {
		if (q.Models[ti] == nil) != (p.Models[ti] == nil) {
			t.Fatalf("task %s: model restored %v, trained %v", tasks.AllNames()[ti], q.Models[ti], p.Models[ti])
		}
	}
	// Model summaries (Table 2b) must match.
	if p.ModelSummary() != q.ModelSummary() {
		t.Fatalf("summaries differ:\n%s\nvs\n%s", p.ModelSummary(), q.ModelSummary())
	}
}

func TestSaveLoadPredictionsIdentical(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	// Replaying the same observations must produce identical predictions.
	test := observe(t, 313370, 40)
	p.ResetOnline()
	q.ResetOnline()
	for i, obs := range test {
		pp := p.PredictNext()
		qq := q.PredictNext()
		if pp.Scenario != qq.Scenario {
			t.Fatalf("frame %d: scenario %v vs %v", i, pp.Scenario, qq.Scenario)
		}
		if math.Abs(pp.TotalMs-qq.TotalMs) > 1e-9 {
			t.Fatalf("frame %d: prediction %v vs %v", i, pp.TotalMs, qq.TotalMs)
		}
		p.Observe(obs)
		q.Observe(obs)
	}
}

func TestLoadPreservesSharedRDGChain(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	full, ok := q.Models[tasks.IndexOf(tasks.NameRDGFull)].(*EWMAMarkovModel)
	if !ok {
		t.Fatal("RDG FULL model lost its type")
	}
	roi, ok := q.Models[tasks.IndexOf(tasks.NameRDGROI)].(*LinearMarkovModel)
	if !ok {
		t.Fatal("RDG ROI model lost its type")
	}
	if full.chain != roi.chain {
		t.Fatal("restored RDG variants no longer share one chain")
	}
	if q.RDGChain() == nil {
		t.Fatal("RDGChain accessor lost after load")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(strings.NewReader("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 99, "models": {"X": {"kind": "constant"}}}`)); err == nil {
		t.Fatal("wrong version accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {}}`)); err == nil {
		t.Fatal("empty snapshot accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {"REG": {"kind": "wat"}}}`)); err == nil {
		t.Fatal("unknown kind accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {"REG": {"kind": "ewma-markov", "alpha": 0.2, "chainName": "missing"}}}`)); err == nil {
		t.Fatal("missing chain accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {"REG": {"kind": "ewma-markov", "alpha": 9, "chainName": "C"}}, "chains": {"C": {"cuts": [], "reps": [0], "counts": [[0]]}}}`)); err == nil {
		t.Fatal("invalid alpha accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {"REG": {"kind": "linear-markov", "chainName": "C"}}, "chains": {"C": {"cuts": [], "reps": [0], "counts": [[0]]}}}`)); err == nil {
		t.Fatal("missing growth accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {"REG": {"kind": "constant", "constantMs": -5984.7}}}`)); err == nil {
		t.Fatal("negative constant time accepted")
	}
	if _, err := Load(strings.NewReader(`{"version": 1, "models": {"REG": {"kind": "ewma-markov", "alpha": 0.2, "chainName": "C", "fallback": -1}}, "chains": {"C": {"cuts": [], "reps": [0], "counts": [[0]]}}}`)); err == nil {
		t.Fatal("negative fallback time accepted")
	}
}

// TestLoadRejectsUnknownTask: a snapshot model for a task outside the flow
// graph is an input error, not a model kept and never used.
func TestLoadRejectsUnknownTask(t *testing.T) {
	const reg = `"REG": {"kind": "constant", "constantMs": 1.5}`
	p, err := Load(strings.NewReader(`{"version": 1, "models": {` + reg + `}}`))
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := p.Models[tasks.IndexOf(tasks.NameREG)].(*ConstantModel); !ok || m.Ms != 1.5 {
		t.Fatalf("REG model restored as %v", p.Models[tasks.IndexOf(tasks.NameREG)])
	}
	_, err = Load(strings.NewReader(`{"version": 1, "models": {` + reg + `, "NOPE": {"kind": "constant", "constantMs": 1}}}`))
	if err == nil || !strings.Contains(err.Error(), "NOPE") {
		t.Fatalf("a model for an unknown task loaded: err %v", err)
	}
}

func TestScenarioTableSurvivesRoundTrip(t *testing.T) {
	p, err := Train(trainSets(t, 3, 50), TrainConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			from, to := flowgraph.FromIndex(i), flowgraph.FromIndex(j)
			if math.Abs(p.Scenarios.Table.P(from.Index(), to.Index())-q.Scenarios.Table.P(from.Index(), to.Index())) > 1e-12 {
				t.Fatalf("scenario P(%d,%d) differs", i, j)
			}
		}
	}
}
