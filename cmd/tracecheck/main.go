// Command tracecheck validates flight-recorder dumps for CI: each argument
// must parse as a Chrome trace-event file (internal/span format) and carry
// at least one frame span plus at least one task span with a positive
// prediction, and every processed frame must carry a scenario label (a
// failed or abandoned frame has no scenario). Exit status 1 if any file
// fails, so the serve-smoke job can assert that a tight budget actually
// produced a well-formed triggered dump.
package main

import (
	"fmt"
	"os"

	"triplec/internal/span"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck dump.json [dump.json ...]")
		os.Exit(2)
	}
	bad := 0
	for _, path := range os.Args[1:] {
		if err := check(path); err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			bad++
			continue
		}
		fmt.Printf("tracecheck: %s ok\n", path)
	}
	if bad > 0 {
		os.Exit(1)
	}
}

func check(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	d, err := span.ReadDump(f)
	if err != nil {
		return err
	}
	if d.Reason == "" {
		return fmt.Errorf("no trigger reason recorded")
	}
	if len(d.Frames) == 0 {
		return fmt.Errorf("no frame spans in dump")
	}
	tasks, predicted := 0, 0
	for _, fr := range d.Frames {
		if fr.Scenario == "" && fr.Outcome == span.OutcomeName(span.OutcomeProcessed) {
			return fmt.Errorf("processed frame %d of %s has no scenario label", fr.Frame, fr.Process)
		}
		for _, t := range fr.Tasks {
			tasks++
			if t.Name == "" {
				return fmt.Errorf("unnamed task span in frame %d", fr.Frame)
			}
			if t.PredictedMs > 0 {
				predicted++
			}
		}
	}
	if tasks == 0 {
		return fmt.Errorf("no task spans in dump")
	}
	if predicted == 0 {
		return fmt.Errorf("no task span carries a positive prediction")
	}
	fmt.Printf("tracecheck: %s: reason=%s frames=%d tasks=%d predicted=%d instants=%d\n",
		path, d.Reason, len(d.Frames), tasks, predicted, len(d.Instants))
	return nil
}
