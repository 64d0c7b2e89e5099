package synth

import (
	"fmt"

	"triplec/internal/stats"
)

// TrainingSet mirrors the paper's training corpus: n sequences with distinct
// seeds and slightly varied dynamics, totalling framesPer frames each. The
// paper used 37 sequences / 1,921 frames.
func TrainingSet(baseSeed uint64, n, framesPer int, base Config) ([]*Sequence, error) {
	if n <= 0 || framesPer <= 0 {
		return nil, fmt.Errorf("synth: training set needs positive n and framesPer")
	}
	rng := stats.NewRNG(baseSeed)
	seqs := make([]*Sequence, 0, n)
	for i := 0; i < n; i++ {
		cfg := base
		cfg.Seed = baseSeed + uint64(i)*1000003
		// Vary the dynamics between sequences the way clinical cases differ.
		cfg.ClutterRate = base.ClutterRate * rng.Range(0.5, 1.8)
		cfg.ContrastEvery = int(float64(base.ContrastEvery) * rng.Range(0.7, 1.4))
		if cfg.ContrastEvery < 1 {
			cfg.ContrastEvery = 1
		}
		seq, err := New(cfg)
		if err != nil {
			return nil, err
		}
		seqs = append(seqs, seq)
	}
	return seqs, nil
}
