// Package metrics is the live telemetry layer of the serving stack: a
// dependency-free, concurrency-safe registry of atomic counters, gauges and
// fixed-bucket histograms, with snapshot support and hand-rolled Prometheus
// text exposition. The paper's profiling step gathers "statistical
// information of the differences between the actually consumed resources
// and the predicted values"; this package makes those differences
// observable *while* a run is in flight instead of only in post-hoc trace
// CSVs.
//
// Design constraints, in order:
//
//   - The record path (Counter.Inc, Gauge.Set, Histogram.Observe) is
//     allocation-free and lock-free: instruments are preregistered once and
//     then touched only through atomic operations, so the per-frame hot
//     paths of pipeline/sched/stream can be instrumented without map
//     lookups, fmt, or heap traffic in steady state.
//   - Registration and exposition take the registry lock; they happen at
//     setup time and on scrapes, never per frame.
//   - No external dependencies: the Prometheus text format is emitted by
//     hand (exposition.go), so the repo stays self-contained.
package metrics

import (
	"math"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing integer, safe for concurrent use.
// The zero value is ready to use, but counters are normally obtained from a
// Registry so they appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() {
	if c == nil {
		return
	}
	c.v.Add(1)
}

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a float64 that can go up and down, safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Histogram counts observations into fixed buckets defined by their upper
// bounds (an implicit +Inf bucket is always appended). Observe is
// allocation-free; the bucket list is scanned linearly, which beats binary
// search for the short (≤ ~20 entry) bucket lists used here.
type Histogram struct {
	bounds  []float64 // strictly increasing upper bounds, +Inf implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64

	// Exemplar slots, one per bucket, allocated only by EnableExemplars
	// (opt-in): the plain Observe path never touches them, so its
	// 0 allocs/op contract is unchanged.
	exMu sync.Mutex
	ex   []Exemplar
}

// Exemplar links one bucket's latest noteworthy observation to its trace
// context: the frame index it came from and, when the flight recorder
// had a dump armed, the dump sequence number (-1 otherwise). Exposed in
// OpenMetrics exemplar syntax so a bad latency bucket points straight at
// the Chrome-trace dump explaining it.
type Exemplar struct {
	Value float64
	Frame int64
	Dump  int64 // flight-recorder dump seq, -1 when none
	Valid bool
}

func newHistogram(bounds []float64) *Histogram {
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(bounds)+1)}
}

// Observe records one sample. NaN and ±Inf observations are dropped so a
// single bad frame can never poison the running sum or the quantile
// estimate.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// EnableExemplars allocates the per-bucket exemplar slots. Call once at
// setup time, before concurrent use.
func (h *Histogram) EnableExemplars() {
	if h == nil {
		return
	}
	h.exMu.Lock()
	if h.ex == nil {
		h.ex = make([]Exemplar, len(h.counts))
	}
	h.exMu.Unlock()
}

// AttachExemplar stores an exemplar on the bucket v falls into,
// overwriting the bucket's previous one. It does NOT count v — the
// caller Observes the value separately (the serving loop does both at
// frame commit), so the sample is never double-counted.
// No-op unless EnableExemplars was called. Allocation-free.
func (h *Histogram) AttachExemplar(v float64, frame, dump int64) {
	if h == nil || math.IsNaN(v) || math.IsInf(v, 0) {
		return
	}
	h.exMu.Lock()
	if h.ex != nil {
		i := 0
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
		h.ex[i] = Exemplar{Value: v, Frame: frame, Dump: dump, Valid: true}
	}
	h.exMu.Unlock()
}

// HistogramSnapshot is a point-in-time copy of a histogram's state. Counts
// are per-bucket (not cumulative); the last entry is the +Inf bucket.
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, +Inf excluded
	Counts []uint64  // len(Bounds)+1, last is the +Inf bucket
	Count  uint64
	Sum    float64
	// Exemplars is len(Counts) when exemplars are enabled, nil otherwise;
	// entries with Valid=false have never been attached.
	Exemplars []Exemplar
}

// Snapshot copies the histogram state. Buckets and the total are read
// without a global lock, so a snapshot taken during concurrent writes may be
// off by the few in-flight observations — fine for scraping.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Count:  h.count.Load(),
		Sum:    math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	h.exMu.Lock()
	if h.ex != nil {
		s.Exemplars = append([]Exemplar(nil), h.ex...)
	}
	h.exMu.Unlock()
	return s
}

// Mean returns the mean of the observed values, or 0 before any sample.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the rank, the standard Prometheus
// histogram_quantile estimate. Values in the +Inf bucket clamp to the last
// finite bound. Returns 0 before any sample.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 || math.IsNaN(q) {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	seen := 0.0
	for i, c := range s.Counts {
		seen += float64(c)
		if seen < rank || c == 0 {
			continue
		}
		if i >= len(s.Bounds) { // +Inf bucket: clamp to the largest finite bound
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		frac := (rank - (seen - float64(c))) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// DefaultLatencyBucketsMs spans the modeled per-frame latencies (the
// paper's pipeline runs 60–120 ms serially; managed frames land near the
// budget, scaled-down test geometries well below it).
func DefaultLatencyBucketsMs() []float64 {
	return []float64{0.5, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1000}
}

// DefaultSignedErrorBuckets spans signed relative prediction errors
// (predicted-actual)/actual. The paper reports ~97% mean accuracy with
// sporadic 20–30% excursions, so the buckets resolve the ±5% core finely
// and keep coarse tails for the excursions.
func DefaultSignedErrorBuckets() []float64 {
	return []float64{-1, -0.5, -0.3, -0.2, -0.1, -0.05, -0.02, 0, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 1}
}
