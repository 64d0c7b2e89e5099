package main

import (
	"fmt"
	"io"
	"math"
	"os"
)

// compareMain implements `benchmark compare a.json b.json`: one row per
// workload x end-to-end metric with both values and the ratio b/a (base a).
// It exits non-zero when any pair differs by more than the metric's bound.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchmark compare a.json b.json")
		return 2
	}
	var docs [2]*document
	for i, path := range args {
		doc, err := readDocument(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark compare:", err)
			return 2
		}
		docs[i] = doc
	}
	if !compareDocuments(os.Stdout, docs[0], docs[1]) {
		return 1
	}
	return 0
}

// compareDocuments prints the table and reports whether every row is within
// its bound. A row within its bound whose repetitions spread wider than the
// bound is unresolved, not ok: the runs cannot tell the two apart.
func compareDocuments(w io.Writer, a, b *document) bool {
	within := true
	fmt.Fprintf(w, "%-14s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "b/a", "bound", "verdict")
	for _, wa := range a.Workloads {
		var wb *workloadResult
		for _, cand := range b.Workloads {
			if cand.Name == wa.Name {
				wb = cand
			}
		}
		if wb == nil {
			fmt.Fprintf(w, "%-14s missing from b\n", wa.Name)
			within = false
			continue
		}
		for _, d := range endToEnd {
			ma, mb := wa.EndToEnd[d.name], wb.EndToEnd[d.name]
			if ma == nil || mb == nil {
				fmt.Fprintf(w, "%-14s %-24s missing\n", wa.Name, d.name)
				within = false
				continue
			}
			ratio := mb.Value / ma.Value
			verdict := "ok"
			switch {
			case math.IsNaN(ratio) || math.Abs(ratio-1) > d.bound:
				within = false
				verdict = "DIFFERS (b worse)"
				if (ratio > 1) == (d.better == "higher") {
					verdict = "DIFFERS (b better)"
				}
			case spread(ma.Reps) > d.bound || spread(mb.Reps) > d.bound:
				verdict = "unresolved"
			}
			fmt.Fprintf(w, "%-14s %-24s %14.6g %14.6g %9.4f %6.0f%%  %s\n",
				wa.Name, d.name, ma.Value, mb.Value, ratio, d.bound*100, verdict)
		}
	}
	return within
}
