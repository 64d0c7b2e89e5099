package core

import (
	"errors"
	"fmt"

	"triplec/internal/stats"
)

// CrossValidate runs k-fold cross validation over the observation
// sequences: each fold trains a predictor on the other folds' sequences and
// evaluates on its own, giving a variance estimate for the accuracy numbers
// instead of a single train/test split.
type FoldResult struct {
	Fold     int
	Accuracy Accuracy
}

// CVSummary aggregates the folds.
type CVSummary struct {
	Folds    []FoldResult
	MeanAcc  float64 // mean of the per-fold conditional accuracies
	StdAcc   float64 // their standard deviation
	WorstAcc float64 // the weakest fold
}

// SplitFold is the k-fold split of every cross-validation here: the
// sequences with index ≡ fold (mod k) are the test set, the rest train.
func SplitFold(sequences [][]Observation, k, fold int) (train, test [][]Observation) {
	for i, seq := range sequences {
		if i%k == fold {
			test = append(test, seq)
		} else {
			train = append(train, seq)
		}
	}
	return train, test
}

// CrossValidate requires at least k sequences (one per fold), k >= 2.
func CrossValidate(sequences [][]Observation, k, warmup int) (CVSummary, error) {
	if k < 2 {
		return CVSummary{}, errors.New("core: need at least 2 folds")
	}
	if len(sequences) < k {
		return CVSummary{}, fmt.Errorf("core: %d sequences cannot fill %d folds", len(sequences), k)
	}
	var out CVSummary
	var accs []float64
	for fold := 0; fold < k; fold++ {
		train, test := SplitFold(sequences, k, fold)
		p, err := Train(train, TrainConfig{})
		if err != nil {
			return CVSummary{}, fmt.Errorf("core: fold %d: %w", fold, err)
		}
		acc, err := p.Evaluate(test, warmup)
		if err != nil {
			return CVSummary{}, fmt.Errorf("core: fold %d: %w", fold, err)
		}
		out.Folds = append(out.Folds, FoldResult{Fold: fold, Accuracy: acc})
		accs = append(accs, acc.Mean)
	}
	out.MeanAcc = stats.Mean(accs)
	out.StdAcc = stats.StdDev(accs)
	out.WorstAcc = stats.Min(accs)
	return out, nil
}
