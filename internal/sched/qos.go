// The quality-of-service side of the runtime manager: the constant-latency
// output regulator (a delay function at the end of the pipeline) and the
// jitter metrics the paper's Section 7 reports (latency variability,
// worst-case vs average-case gap, jitter reduction).

package sched

import (
	"errors"

	"triplec/internal/stats"
)

// Regulator keeps the output latency constant at BudgetMs: frames that
// finish early are delayed to the budget; frames that overrun are emitted
// late. During a live interventional X-ray procedure large latency
// differences between succeeding frames are not allowed for clinical
// reasons (eye-hand coordination of the physician).
type Regulator struct {
	// BudgetMs is the constant output latency target, initialized close to
	// the average case per the paper's Section 6.
	BudgetMs float64
}

// OutputLatency returns the latency the viewer observes for a frame with
// the given processing time: the budget when processing finished in time,
// the processing time itself when it overran.
func (r Regulator) OutputLatency(processingMs float64) float64 {
	if processingMs > r.BudgetMs {
		return processingMs
	}
	return r.BudgetMs
}

// Regulate maps a processing-latency series to the observed output-latency
// series.
func (r Regulator) Regulate(processing []float64) []float64 {
	out := make([]float64, len(processing))
	for i, p := range processing {
		out[i] = r.OutputLatency(p)
	}
	return out
}

// OverrunRate returns the fraction of frames that missed the budget.
func (r Regulator) OverrunRate(processing []float64) float64 {
	if len(processing) == 0 {
		return 0
	}
	n := 0
	for _, p := range processing {
		if p > r.BudgetMs {
			n++
		}
	}
	return float64(n) / float64(len(processing))
}

// JitterReduction returns how much of the latency jitter the `after` series
// removes relative to `before`, measured on the standard deviation:
// 1 - std(after)/std(before). The paper reports that semi-automatic
// parallelization lowers the jitter by almost 70%.
func JitterReduction(before, after []float64) (float64, error) {
	if len(before) == 0 || len(after) == 0 {
		return 0, errors.New("qos: empty series")
	}
	sb := stats.StdDev(before)
	if sb == 0 {
		return 0, errors.New("qos: reference series has no jitter")
	}
	return 1 - stats.StdDev(after)/sb, nil
}

// WorstVsAverage returns the relative worst-case vs average-case gap of a
// latency series ((max-mean)/mean) — 85% for the paper's straightforward
// mapping, 20% for the semi-automatic parallel case.
func WorstVsAverage(series []float64) (float64, error) {
	j, err := stats.JitterOf(series)
	if err != nil {
		return 0, err
	}
	return j.WorstVsAvg, nil
}

// LatencyProfile summarizes a latency series the way real-time systems are
// specified: mean and tail percentiles.
type LatencyProfile struct {
	Mean, P50, P90, P95, P99, Max float64
}

// ProfileOf computes the LatencyProfile of a series.
func ProfileOf(series []float64) (LatencyProfile, error) {
	if len(series) == 0 {
		return LatencyProfile{}, errors.New("qos: empty series")
	}
	p := LatencyProfile{Mean: stats.Mean(series), Max: stats.Max(series)}
	for _, q := range []struct {
		pct float64
		dst *float64
	}{{50, &p.P50}, {90, &p.P90}, {95, &p.P95}, {99, &p.P99}} {
		v, err := stats.Percentile(series, q.pct)
		if err != nil {
			return LatencyProfile{}, err
		}
		*q.dst = v
	}
	return p, nil
}
