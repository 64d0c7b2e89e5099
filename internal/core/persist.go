package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"triplec/internal/tasks"
)

// Persistence: a trained Predictor serializes to JSON so training (the
// expensive profiling pass over the sequence corpus) happens once and the
// deployed runtime manager loads the models at startup. Only trained
// parameters are stored; online state (filter levels, current Markov
// states) always starts fresh.

const persistVersion = 1

type chainJSON struct {
	Cuts   []float64   `json:"cuts"`
	Reps   []float64   `json:"reps"`
	Counts [][]float64 `json:"counts"`
}

type modelJSON struct {
	Kind       string        `json:"kind"` // constant | ewma-markov | linear-markov
	ConstantMs float64       `json:"constantMs,omitempty"`
	Alpha      float64       `json:"alpha,omitempty"`
	Fallback   float64       `json:"fallback,omitempty"`
	ChainName  string        `json:"chainName,omitempty"`
	Growth     *LinearGrowth `json:"growth,omitempty"`
	Online     bool          `json:"online,omitempty"`
}

type predictorJSON struct {
	Version   int                  `json:"version"`
	Models    map[string]modelJSON `json:"models"`
	Chains    map[string]chainJSON `json:"chains"`
	Scenarios [8][8]float64        `json:"scenarios"`
}

func snapshotChain(c *Chain) chainJSON {
	cuts, reps := c.q.Snapshot()
	return chainJSON{Cuts: cuts, Reps: reps, Counts: c.Counts()}
}

func restoreChain(j chainJSON) (*Chain, error) {
	q, err := RestoreQuantizer(j.Cuts, j.Reps)
	if err != nil {
		return nil, err
	}
	return RestoreChain(q, j.Counts)
}

// Save writes the trained predictor as JSON.
func (p *Predictor) Save(w io.Writer) error {
	out := predictorJSON{
		Version: persistVersion,
		Models:  map[string]modelJSON{},
		Chains:  map[string]chainJSON{},
	}
	for i := range out.Scenarios {
		copy(out.Scenarios[i][:], p.Scenarios.Table.Row(i))
	}
	for ti, m := range p.Models {
		task := specs[ti].Name
		switch mm := m.(type) {
		case nil: // no model for this task
		case *ConstantModel:
			out.Models[string(task)] = modelJSON{Kind: "constant", ConstantMs: mm.Ms}
		case *EWMAMarkovModel:
			if _, seen := out.Chains[mm.name]; !seen {
				out.Chains[mm.name] = snapshotChain(mm.chain)
			}
			out.Models[string(task)] = modelJSON{
				Kind:      "ewma-markov",
				Alpha:     mm.filter.Alpha(),
				Fallback:  mm.fallback,
				ChainName: mm.name,
				Online:    mm.OnlineTraining,
			}
		case *LinearMarkovModel:
			if _, seen := out.Chains[mm.name]; !seen {
				out.Chains[mm.name] = snapshotChain(mm.chain)
			}
			g := mm.growth
			out.Models[string(task)] = modelJSON{
				Kind:      "linear-markov",
				Growth:    &g,
				ChainName: mm.name,
				Online:    mm.OnlineTraining,
			}
		default:
			return fmt.Errorf("core: cannot persist model type %T for %s", m, task)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// Clone returns an independent copy of the trained predictor via a
// Save/Load round trip: same trained parameters, fresh online state, no
// shared mutable structures. Shadow backends clone the deployed predictor
// so racing it never perturbs the instance steering the scheduler.
func (p *Predictor) Clone() (*Predictor, error) {
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		return nil, err
	}
	return Load(&buf)
}

// Load restores a predictor previously written by Save. Shared chains are
// restored once and shared between the models referencing them, preserving
// the single-RDG-chain property.
func Load(r io.Reader) (*Predictor, error) {
	var in predictorJSON
	if err := json.NewDecoder(r).Decode(&in); err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	if in.Version != persistVersion {
		return nil, fmt.Errorf("core: unsupported predictor version %d", in.Version)
	}
	if len(in.Models) == 0 {
		return nil, errors.New("core: no models in snapshot")
	}
	chains := map[string]*Chain{}
	for name, cj := range in.Chains {
		c, err := restoreChain(cj)
		if err != nil {
			return nil, fmt.Errorf("core: chain %s: %w", name, err)
		}
		chains[name] = c
	}
	p := &Predictor{Scenarios: NewScenarioTable()}
	for i := range in.Scenarios {
		if err := p.Scenarios.Table.RestoreRow(i, in.Scenarios[i][:]); err != nil {
			return nil, fmt.Errorf("core: scenario row %d: %w", i, err)
		}
	}
	for name, mj := range in.Models {
		ti := tasks.IndexOf(tasks.Name(name))
		if ti < 0 {
			return nil, fmt.Errorf("core: model for unknown task %q", name)
		}
		switch mj.Kind {
		case "constant":
			if mj.ConstantMs < 0 {
				return nil, fmt.Errorf("core: model %s has negative constant time %v ms", name, mj.ConstantMs)
			}
			p.Models[ti] = &ConstantModel{Ms: mj.ConstantMs}
		case "ewma-markov":
			chain, ok := chains[mj.ChainName]
			if !ok {
				return nil, fmt.Errorf("core: model %s references missing chain %q", name, mj.ChainName)
			}
			filter, err := NewFilter(mj.Alpha)
			if err != nil {
				return nil, fmt.Errorf("core: model %s: %w", name, err)
			}
			if mj.Fallback < 0 {
				return nil, fmt.Errorf("core: model %s has negative fallback time %v ms", name, mj.Fallback)
			}
			m := &EWMAMarkovModel{
				filter:         filter,
				chain:          chain,
				name:           mj.ChainName,
				fallback:       mj.Fallback,
				OnlineTraining: mj.Online,
			}
			p.Models[ti] = m
		case "linear-markov":
			chain, ok := chains[mj.ChainName]
			if !ok {
				return nil, fmt.Errorf("core: model %s references missing chain %q", name, mj.ChainName)
			}
			if mj.Growth == nil {
				return nil, fmt.Errorf("core: model %s missing growth coefficients", name)
			}
			m, err := NewLinearMarkovModel(*mj.Growth, chain, mj.ChainName)
			if err != nil {
				return nil, err
			}
			m.OnlineTraining = mj.Online
			p.Models[ti] = m
		default:
			return nil, fmt.Errorf("core: unknown model kind %q for %s", mj.Kind, name)
		}
	}
	return p, nil
}
