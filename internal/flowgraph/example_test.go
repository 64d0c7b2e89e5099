package flowgraph_test

import (
	"fmt"

	"triplec/internal/flowgraph"
)

// ExampleScenario_Edges reproduces two of the paper's Fig. 2 bandwidth
// labels.
func ExampleScenario_Edges() {
	edges, err := flowgraph.WorstCase().Edges(flowgraph.PaperFrameKB)
	if err != nil {
		panic(err)
	}
	for _, e := range edges[:2] {
		fmt.Printf("%s -> %s: %.0f MB/s\n", e.From, e.To, e.MBs(30))
	}
	// Output:
	// INPUT -> RDG_FULL: 60 MB/s
	// RDG_FULL -> MKX_EXT: 150 MB/s
}

// ExampleScenario_String shows the switch notation.
func ExampleScenario_String() {
	fmt.Println(flowgraph.WorstCase())
	fmt.Println(flowgraph.BestCase())
	// Output:
	// rdg=on gran=full reg=ok
	// rdg=off gran=roi reg=fail
}
