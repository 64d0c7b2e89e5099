// Package experiments regenerates every table and figure of the paper's
// evaluation (see DESIGN.md §4 for the experiment index). Each experiment
// is a function writing the paper-style rows/series to an io.Writer; the
// cmd/experiments binary and the top-level benchmarks drive them.
package experiments

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"sync"

	"triplec/internal/core"
	"triplec/internal/frame"
	"triplec/internal/parallel"
	"triplec/internal/partition"
	"triplec/internal/pipeline"
	"triplec/internal/platform"
	"triplec/internal/synth"
)

// Study bundles the common experimental setup: frame geometry, platform,
// training corpus size and seeds. The paper's corpus is 37 sequences /
// 1,921 frames; the default study uses a smaller corpus that trains the
// same models in seconds (pass -full to cmd/experiments for the
// paper-sized corpus).
type Study struct {
	FrameW, FrameH int
	Spacing        float64
	Arch           platform.Arch
	TrainSeqs      int
	TrainFrames    int
	TestSeqs       int
	TestFrames     int
	Seed           uint64
}

// DefaultStudy returns the fast study configuration.
func DefaultStudy() Study {
	return Study{
		FrameW: 128, FrameH: 128,
		Spacing:     36,
		Arch:        platform.Blackford(),
		TrainSeqs:   6,
		TrainFrames: 80,
		TestSeqs:    2,
		TestFrames:  100,
		Seed:        1,
	}
}

// PaperStudy returns the full-size study: 37 training sequences of ~52
// frames each, totalling 1,921 frames like the paper's corpus.
func PaperStudy() Study {
	s := DefaultStudy()
	s.TrainSeqs = 37
	s.TrainFrames = 52 // 37 * 52 = 1,924 ≈ the paper's 1,921 frames
	s.TestSeqs = 4
	s.TestFrames = 200
	return s
}

// FramePixels returns the processed pixel count.
func (s Study) FramePixels() int { return s.FrameW * s.FrameH }

// SynthConfig returns the synthetic-sequence configuration for a seed.
func (s Study) SynthConfig(seed uint64) synth.Config {
	cfg := synth.DefaultConfig(seed)
	cfg.Width, cfg.Height = s.FrameW, s.FrameH
	cfg.MarkerSpacing = s.Spacing
	cfg.NoiseSigma = 250
	cfg.QuantumGain = 0
	cfg.ClutterRate = 3
	cfg.DropoutEvery = 23
	return cfg
}

// Sequence builds a synthetic sequence for a seed.
func (s Study) Sequence(seed uint64) (*synth.Sequence, error) {
	return synth.New(s.SynthConfig(seed))
}

// Engine builds a fresh pipeline engine.
func (s Study) Engine() (*pipeline.Engine, error) {
	return pipeline.New(pipeline.Config{
		Width: s.FrameW, Height: s.FrameH,
		MarkerSpacing: s.Spacing,
		Arch:          s.Arch,
	})
}

// Source adapts a sequence to the pipeline's frame source signature.
func Source(seq *synth.Sequence) func(int) *frame.Frame {
	return func(i int) *frame.Frame {
		f, _ := seq.Frame(i)
		return f
	}
}

// Observations profiles one sequence through a fresh engine with the serial
// mapping and returns the observation stream.
func (s Study) Observations(seed uint64, frames int) ([]core.Observation, error) {
	seq, err := s.Sequence(seed)
	if err != nil {
		return nil, err
	}
	eng, err := s.Engine()
	if err != nil {
		return nil, err
	}
	reports, err := eng.RunSequence(frames, Source(seq), partition.Serial())
	if err != nil {
		return nil, err
	}
	return core.FromReports(reports, s.FramePixels()), nil
}

// Profile profiles n sequences of frames frames each, sequence i seeded
// first+i*step, spread over GOMAXPROCS goroutines. Each goroutine builds its
// own sequences and engines and the reports carry modeled time only, so the
// result is the serial loop's, whatever the interleaving. The error is the
// lowest-indexed sequence's.
func (s Study) Profile(first, step uint64, n, frames int) ([][]core.Observation, error) {
	out := make([][]core.Observation, n)
	errs := make([]error, n)
	parallel.ForStripes(n, runtime.GOMAXPROCS(0), func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			out[i], errs[i] = s.Observations(first+uint64(i)*step, frames)
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// TrainingSets profiles the study's training corpus.
func (s Study) TrainingSets() ([][]core.Observation, error) {
	return s.Profile(s.Seed+1000, 17, s.TrainSeqs, s.TrainFrames)
}

// TestSets profiles the held-out test sequences.
func (s Study) TestSets() ([][]core.Observation, error) {
	return s.Profile(s.Seed+900000, 83, s.TestSeqs, s.TestFrames)
}

// trainCache memoizes training per study configuration (Study is a
// comparable value type) so a multi-experiment run — or a fleet of served
// streams — does not re-profile the same corpus for every table, figure and
// stream. Each caller receives a fresh predictor restored from the cached
// serialized form, so online state and online training never leak between
// experiments; the profiled corpus is kept beside it, shared and read-only.
var trainCache sync.Map // Study -> trainedStudy

type trainedStudy struct {
	blob   []byte // serialized predictor
	corpus [][]core.Observation
}

// train returns a fresh trained predictor and the corpus it was trained on.
func (s Study) train() (*core.Predictor, [][]core.Observation, error) {
	if v, ok := trainCache.Load(s); ok {
		t := v.(trainedStudy)
		p, err := core.Load(bytes.NewReader(t.blob))
		return p, t.corpus, err
	}
	sets, err := s.TrainingSets()
	if err != nil {
		return nil, nil, err
	}
	p, err := core.Train(sets, core.TrainConfig{})
	if err != nil {
		return nil, nil, err
	}
	p.ResetOnline()
	var buf bytes.Buffer
	if err := p.Save(&buf); err == nil {
		trainCache.Store(s, trainedStudy{blob: buf.Bytes(), corpus: sets})
	}
	return p, sets, nil
}

// TrainPredictor trains a Triple-C predictor on the study corpus (cached
// per study configuration).
func (s Study) TrainPredictor() (*core.Predictor, error) {
	p, _, err := s.train()
	return p, err
}

// header prints a section banner.
func header(w io.Writer, id, title string) {
	fmt.Fprintf(w, "\n================ %s — %s ================\n", id, title)
}
