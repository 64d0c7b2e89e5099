// Multifunction: the paper's motivating goal — "a multitude of imaging
// functions is carried out in parallel" on one off-the-shelf multiprocessor
// (Section 2) and Triple-C's predictions make that sharing safe (Section 6).
// Two stent-enhancement pipelines each receive half of the 8-core machine;
// the example shows both meeting their latency budgets, the Gantt timeline
// of a frame, and the bandwidth-side feasibility check.
//
// Run with:
//
//	go run ./examples/multifunction
package main

import (
	"fmt"
	"log"

	"triplec/internal/experiments"
	"triplec/internal/flowgraph"
	"triplec/internal/sched"
	"triplec/internal/stats"
)

func main() {
	study := experiments.ServingStudy(4)

	fmt.Println("training the shared Triple-C models once...")
	mkApp := func(name string, seed uint64) sched.App {
		st, err := study.ServedStream(seed, 0)
		if err != nil {
			log.Fatal(err)
		}
		if err := st.Manager.SetCoreBudget(study.Arch.NumCPUs / 2); err != nil {
			log.Fatal(err)
		}
		return sched.App{
			Name: name, Engine: st.Engine, Manager: st.Manager,
			Source: st.Source, FramePixels: study.FramePixels(),
		}
	}

	apps := []sched.App{mkApp("lab-A stent enhancement", 101), mkApp("lab-B stent enhancement", 202)}
	const frames = 100
	res, err := sched.RunMultiApp(apps, frames)
	if err != nil {
		log.Fatal(err)
	}

	for i, app := range apps {
		r := res.PerApp[i]
		gap, err := sched.WorstVsAverage(r.Output)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: %d cores, budget %.1f ms, output %.0f..%.0f ms, worst-vs-avg %.0f%%, overruns %.0f%%\n",
			app.Name, app.Manager.CoreBudget(), r.Regulator.BudgetMs,
			stats.Min(r.Output), stats.Max(r.Output),
			100*gap, 100*r.Regulator.OverrunRate(r.Processing))
	}

	// One frame's Gantt across the shared machine: app A on cores 0..3,
	// app B on cores 4..7.
	mid := frames / 2
	tlA, err := sched.BuildTimeline(res.PerApp[0].Reports[mid], study.Arch.NumCPUs, 0)
	if err != nil {
		log.Fatal(err)
	}
	tlB, err := sched.BuildTimeline(res.PerApp[1].Reports[mid], study.Arch.NumCPUs, study.Arch.NumCPUs/2)
	if err != nil {
		log.Fatal(err)
	}
	tlA.Intervals = append(tlA.Intervals, tlB.Intervals...)
	if tlB.MakespanMs > tlA.MakespanMs {
		tlA.MakespanMs = tlB.MakespanMs
	}
	if err := tlA.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nframe %d across the shared 8-core machine:\n%s", mid, tlA.Render(64))

	// Bandwidth side: how many instances does the 29 GB/s memory sustain?
	an, err := flowgraph.Analyze(flowgraph.WorstCase(), flowgraph.PaperFrameKB,
		study.Arch.L2.SizeBytes/1024, 30)
	if err != nil {
		log.Fatal(err)
	}
	n, err := flowgraph.MaxConcurrentInstances(an, study.Arch.MemBWGBs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbandwidth check: worst-case scenario needs %.1f GB/s; the %.0f GB/s bus sustains %d instances\n",
		an.TotalMBs()/1024, study.Arch.MemBWGBs, n)
}
