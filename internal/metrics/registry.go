package metrics

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
)

// Label is one name="value" pair attached to an instrument.
type Label struct {
	Name, Value string
}

// L is shorthand for building a Label.
func L(name, value string) Label { return Label{Name: name, Value: value} }

// Kind is the instrument type of a metric family.
type Kind int

// The three instrument kinds.
const (
	KindCounter Kind = iota
	KindGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindHistogram:
		return "histogram"
	}
	return "untyped"
}

// entry is one registered instrument: a family member with a fixed label
// set, pre-rendered at registration so exposition never re-escapes.
type entry struct {
	labelStr string // `stream="a",task="b"` with escaped values, or ""

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

// family groups all instruments sharing one metric name.
type family struct {
	name, help string
	kind       Kind
	entries    []*entry
	seen       map[string]bool // label signatures, for duplicate detection
}

// Registry holds named instrument families. All methods are safe for
// concurrent use; registration normally happens once at setup time, the
// record path then touches only the returned instrument handles.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	order      []string // family registration order, for stable exposition
	collectors []func() // refresh hooks run before every snapshot
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// NewCounter registers a counter with the given label set and returns its
// handle. Registering the same name with a different kind, or the same
// (name, labels) twice, is an error.
func (r *Registry) NewCounter(name, help string, labels ...Label) (*Counter, error) {
	e, err := r.register(name, help, KindCounter, nil, labels)
	if err != nil {
		return nil, err
	}
	return e.counter, nil
}

// NewGauge registers a gauge and returns its handle.
func (r *Registry) NewGauge(name, help string, labels ...Label) (*Gauge, error) {
	e, err := r.register(name, help, KindGauge, nil, labels)
	if err != nil {
		return nil, err
	}
	return e.gauge, nil
}

// NewHistogram registers a histogram with the given bucket upper bounds
// (strictly increasing, finite; +Inf is implicit) and returns its handle.
func (r *Registry) NewHistogram(name, help string, buckets []float64, labels ...Label) (*Histogram, error) {
	if len(buckets) == 0 {
		return nil, fmt.Errorf("metrics: histogram %q needs at least one bucket", name)
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			return nil, fmt.Errorf("metrics: histogram %q bucket %d is not finite", name, i)
		}
		if i > 0 && b <= buckets[i-1] {
			return nil, fmt.Errorf("metrics: histogram %q buckets not strictly increasing at %d", name, i)
		}
	}
	e, err := r.register(name, help, KindHistogram, buckets, labels)
	if err != nil {
		return nil, err
	}
	return e.hist, nil
}

func (r *Registry) register(name, help string, kind Kind, buckets []float64, labels []Label) (*entry, error) {
	if !validMetricName(name) {
		return nil, fmt.Errorf("metrics: invalid metric name %q", name)
	}
	for _, l := range labels {
		if !validLabelName(l.Name) {
			return nil, fmt.Errorf("metrics: metric %q: invalid label name %q", name, l.Name)
		}
		if kind == KindHistogram && l.Name == "le" {
			return nil, fmt.Errorf("metrics: metric %q: label \"le\" is reserved for histogram buckets", name)
		}
	}
	e := &entry{labelStr: renderLabels(labels)}
	switch kind {
	case KindCounter:
		e.counter = &Counter{}
	case KindGauge:
		e.gauge = &Gauge{}
	case KindHistogram:
		e.hist = newHistogram(buckets)
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, seen: map[string]bool{}}
		r.families[name] = f
		r.order = append(r.order, name)
	} else {
		if f.kind != kind {
			return nil, fmt.Errorf("metrics: metric %q already registered as %s", name, f.kind)
		}
		if help != "" && f.help == "" {
			f.help = help
		}
	}
	if f.seen[e.labelStr] {
		return nil, fmt.Errorf("metrics: duplicate metric %q{%s}", name, e.labelStr)
	}
	f.seen[e.labelStr] = true
	f.entries = append(f.entries, e)
	return e, nil
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i, c := range s {
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" || strings.HasPrefix(s, "__") {
		return false
	}
	for i, c := range s {
		ok := c == '_' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// renderLabels pre-renders `k="v",k2="v2"` with label values escaped per
// the Prometheus text format (backslash, double-quote, newline).
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	sorted := append([]Label(nil), labels...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	var b strings.Builder
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Name)
		b.WriteString(`="`)
		for _, c := range l.Value {
			switch c {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteRune(c)
			}
		}
		b.WriteByte('"')
	}
	return b.String()
}

// Snapshot is a point-in-time copy of every registered instrument, in
// registration order — the input of the metrics→trace bridge and the
// /healthz summaries.
type Snapshot struct {
	Families []FamilySnapshot
}

// FamilySnapshot is one metric family's snapshot.
type FamilySnapshot struct {
	Name, Help string
	Kind       Kind
	Metrics    []MetricSnapshot
}

// MetricSnapshot is one instrument's snapshot. Value carries counter and
// gauge readings; Histogram is set for histograms.
type MetricSnapshot struct {
	LabelStr  string
	Value     float64
	Histogram *HistogramSnapshot
}

// RegisterCollector adds a refresh hook invoked before every Snapshot (and
// therefore before every exposition scrape and CSV sample). Collectors
// update pull-style gauges — e.g. Go runtime health — that have no event to
// record on; they run outside the registry lock, so they may only touch
// instrument handles (which are atomics), never the registry itself.
func (r *Registry) RegisterCollector(f func()) {
	if f == nil {
		return
	}
	r.mu.Lock()
	r.collectors = append(r.collectors, f)
	r.mu.Unlock()
}

// Snapshot copies the current state of every instrument. Families and
// instruments appear in registration order, so repeated snapshots of a
// registry keep stable prefixes even when new instruments are registered in
// between (they append).
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	collectors := r.collectors
	r.mu.Unlock()
	for _, f := range collectors {
		f()
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := Snapshot{Families: make([]FamilySnapshot, 0, len(r.order))}
	for _, name := range r.order {
		f := r.families[name]
		fs := FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind,
			Metrics: make([]MetricSnapshot, 0, len(f.entries))}
		for _, e := range f.entries {
			ms := MetricSnapshot{LabelStr: e.labelStr}
			switch f.kind {
			case KindCounter:
				ms.Value = float64(e.counter.Value())
			case KindGauge:
				ms.Value = e.gauge.Value()
			case KindHistogram:
				h := e.hist.Snapshot()
				ms.Histogram = &h
				ms.Value = h.Sum
			}
			fs.Metrics = append(fs.Metrics, ms)
		}
		out.Families = append(out.Families, fs)
	}
	return out
}
