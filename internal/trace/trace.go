// Package trace records per-frame execution traces and renders them as
// CSV/TSV tables or quick ASCII charts. The paper's profiling step gathers
// exactly this kind of data ("statistical information of the differences
// between the actually consumed resources and the predicted values"); the
// cmd tools and examples use it to export series for external plotting.
package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// Series is a named column of per-frame values.
type Series struct {
	Name   string
	Values []float64
}

// Trace is a collection of aligned per-frame series.
type Trace struct {
	columns []Series
	index   map[string]int
}

// New returns an empty trace.
func New() *Trace {
	return &Trace{index: map[string]int{}}
}

// Add appends a complete series. All series in a trace must have the same
// length; the first Add fixes it.
func (t *Trace) Add(name string, values []float64) error {
	if name == "" {
		return errors.New("trace: empty series name")
	}
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("trace: duplicate series %q", name)
	}
	if len(t.columns) > 0 && len(values) != t.Len() {
		return fmt.Errorf("trace: series %q has %d values, trace has %d frames",
			name, len(values), t.Len())
	}
	t.index[name] = len(t.columns)
	t.columns = append(t.columns, Series{Name: name, Values: append([]float64(nil), values...)})
	return nil
}

// Append adds one frame worth of values, one per existing series, in the
// order the series were added. Use for incremental recording: create the
// trace with AddEmpty columns first.
func (t *Trace) Append(values ...float64) error {
	if len(values) != len(t.columns) {
		return fmt.Errorf("trace: Append got %d values for %d series", len(values), len(t.columns))
	}
	for i, v := range values {
		t.columns[i].Values = append(t.columns[i].Values, v)
	}
	return nil
}

// Grow makes room for n more frames in every series, so the next n Appends
// do not allocate.
func (t *Trace) Grow(n int) {
	for i := range t.columns {
		t.columns[i].Values = slices.Grow(t.columns[i].Values, n)
	}
}

// AddEmpty declares a series with no values yet (for Append-style use).
func (t *Trace) AddEmpty(name string) error {
	if t.Len() > 0 {
		return errors.New("trace: cannot add empty series to a non-empty trace")
	}
	return t.Add(name, nil)
}

// Len returns the number of frames recorded.
func (t *Trace) Len() int {
	if len(t.columns) == 0 {
		return 0
	}
	return len(t.columns[0].Values)
}

// Names returns the series names in column order.
func (t *Trace) Names() []string {
	out := make([]string, len(t.columns))
	for i, c := range t.columns {
		out[i] = c.Name
	}
	return out
}

// Get returns a copy of the named series.
func (t *Trace) Get(name string) ([]float64, error) {
	i, ok := t.index[name]
	if !ok {
		return nil, fmt.Errorf("trace: no series %q", name)
	}
	return append([]float64(nil), t.columns[i].Values...), nil
}

// Merge combines several traces of equal length into one, prefixing every
// series name with the corresponding prefix (joined with "_"). The serving
// layer uses it to export the per-stream latency/throughput/deadline series
// side by side in a single CSV.
func Merge(prefixes []string, traces []*Trace) (*Trace, error) {
	if len(prefixes) != len(traces) {
		return nil, fmt.Errorf("trace: %d prefixes for %d traces", len(prefixes), len(traces))
	}
	if len(traces) == 0 {
		return nil, errors.New("trace: nothing to merge")
	}
	out := New()
	for ti, tr := range traces {
		if tr == nil {
			return nil, fmt.Errorf("trace: trace %d is nil", ti)
		}
		if tr.Len() != traces[0].Len() {
			return nil, fmt.Errorf("trace: trace %q has %d frames, want %d",
				prefixes[ti], tr.Len(), traces[0].Len())
		}
		for _, c := range tr.columns {
			name := c.Name
			if prefixes[ti] != "" {
				name = prefixes[ti] + "_" + name
			}
			if err := out.Add(name, c.Values); err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// WriteCSV emits the trace as CSV with a header row and a leading frame
// column.
func (t *Trace) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := append([]string{"frame"}, t.Names()...)
	if err := cw.Write(header); err != nil {
		return err
	}
	row := make([]string, len(header))
	for i := 0; i < t.Len(); i++ {
		row[0] = strconv.Itoa(i)
		for j, c := range t.columns {
			row[j+1] = strconv.FormatFloat(c.Values[i], 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Chart renders an ASCII line chart of the named series, `width` columns
// wide and `height` rows tall, with min/max labels. Several series can be
// overlaid; each uses its own glyph.
func (t *Trace) Chart(width, height int, names ...string) (string, error) {
	if width < 8 || height < 2 {
		return "", errors.New("trace: chart too small")
	}
	if len(names) == 0 {
		names = t.Names()
	}
	glyphs := []byte{'*', '+', 'o', 'x', '#'}
	var cols []Series
	// The range scan and the plot below ignore NaN/±Inf samples (series fed
	// from live metrics may contain gaps) instead of letting one poison the
	// whole scale.
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, n := range names {
		i, ok := t.index[n]
		if !ok {
			return "", fmt.Errorf("trace: no series %q", n)
		}
		c := t.columns[i]
		if len(c.Values) == 0 {
			return "", fmt.Errorf("trace: series %q empty", n)
		}
		cols = append(cols, c)
		for _, v := range c.Values {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			lo = math.Min(lo, v)
			hi = math.Max(hi, v)
		}
	}
	if lo > hi {
		return "", fmt.Errorf("trace: series %s hold no finite values to chart", strings.Join(names, ", "))
	}
	if hi == lo {
		hi = lo + 1
	}
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for ci, c := range cols {
		g := glyphs[ci%len(glyphs)]
		n := len(c.Values)
		for x := 0; x < width; x++ {
			idx := x * (n - 1) / max(1, width-1)
			if n == 1 {
				idx = 0
			}
			v := c.Values[idx]
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue // leave a gap where the sample is not finite
			}
			row := int((hi - v) / (hi - lo) * float64(height-1))
			grid[row][x] = g
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%.2f\n", hi)
	for _, row := range grid {
		b.Write(row)
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "%.2f", lo)
	legend := make([]string, len(cols))
	for i, c := range cols {
		legend[i] = fmt.Sprintf("%c=%s", glyphs[i%len(glyphs)], c.Name)
	}
	sort.Strings(legend)
	fmt.Fprintf(&b, "   [%s]\n", strings.Join(legend, " "))
	return b.String(), nil
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
