package flowgraph_test

import (
	"fmt"

	"triplec/internal/flowgraph"
	"triplec/internal/tasks"
)

// ExampleLookup shows the Table 1 row of RDG FULL at the paper's geometry.
func ExampleLookup() {
	req, err := flowgraph.Lookup(tasks.NameRDGFull, true, flowgraph.PaperFrameKB)
	if err != nil {
		panic(err)
	}
	fmt.Printf("input=%d intermediate=%d output=%d total=%d KB\n",
		req.InputKB, req.IntermediateKB, req.OutputKB, req.TotalKB())
	// Output:
	// input=2048 intermediate=7168 output=5120 total=14336 KB
}

// ExampleIntraTaskOverflowKB shows which tasks overflow the 4 MB L2.
func ExampleIntraTaskOverflowKB() {
	over, err := flowgraph.IntraTaskOverflowKB(flowgraph.PaperFrameKB, 4096)
	if err != nil {
		panic(err)
	}
	fmt.Println("RDG FULL overflow:", over[tasks.NameRDGFull], "KB")
	// Output:
	// RDG FULL overflow: 10240 KB
}
