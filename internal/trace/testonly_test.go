package trace

import (
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"triplec/internal/stats"
)

// The CSV reader (the WriteCSV round-trip's oracle) and the per-series
// summary, which only tests use.

// ReadCSV parses a trace previously written by WriteCSV.
func ReadCSV(r io.Reader) (*Trace, error) {
	cr := csv.NewReader(r)
	records, err := cr.ReadAll()
	if err != nil {
		return nil, err
	}
	if len(records) == 0 || len(records[0]) < 2 || records[0][0] != "frame" {
		return nil, errors.New("trace: not a trace CSV")
	}
	names := records[0][1:]
	cols := make([][]float64, len(names))
	for rowIdx, rec := range records[1:] {
		if len(rec) != len(names)+1 {
			return nil, fmt.Errorf("trace: row %d has %d fields, want %d", rowIdx+1, len(rec), len(names)+1)
		}
		for j := range names {
			v, err := strconv.ParseFloat(rec[j+1], 64)
			if err != nil {
				return nil, fmt.Errorf("trace: row %d column %q: %w", rowIdx+1, names[j], err)
			}
			cols[j] = append(cols[j], v)
		}
	}
	out := New()
	for j, name := range names {
		if err := out.Add(name, cols[j]); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Summary renders per-series statistics.
func (t *Trace) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s\n", "series", "mean", "min", "max", "std")
	for _, c := range t.columns {
		if len(c.Values) == 0 {
			fmt.Fprintf(&b, "%-20s %10s %10s %10s %10s\n", c.Name, "-", "-", "-", "-")
			continue
		}
		fmt.Fprintf(&b, "%-20s %10.2f %10.2f %10.2f %10.2f\n",
			c.Name, stats.Mean(c.Values), stats.Min(c.Values), stats.Max(c.Values), stats.StdDev(c.Values))
	}
	return b.String()
}
