package flowgraph

import (
	"fmt"
	"sort"
	"strings"
)

// DOT renders the scenario's flow graph in Graphviz format with the Fig. 2
// bandwidth labels on the edges, so the graph can be plotted with
// `dot -Tpng`. Switch-skipped tasks are omitted, like the paper draws the
// active path.
func (s Scenario) DOT(frameKB int, rate float64) (string, error) {
	edges, err := s.ratedEdges(frameKB, rate)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	b.WriteString("digraph triplec {\n")
	b.WriteString("  rankdir=LR;\n")
	fmt.Fprintf(&b, "  label=\"scenario %s — %d KB frames @ %.0f Hz\";\n", s, frameKB, rate)
	b.WriteString("  node [shape=box, fontname=\"Helvetica\"];\n")
	b.WriteString("  INPUT [shape=ellipse];\n  OUTPUT [shape=ellipse];\n")

	// Emit nodes in a stable order.
	nodes := map[string]bool{}
	for _, e := range edges {
		nodes[string(e.From)] = true
		nodes[string(e.To)] = true
	}
	names := make([]string, 0, len(nodes))
	for n := range nodes {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if n == string(NodeInput) || n == string(NodeOutput) {
			continue
		}
		fmt.Fprintf(&b, "  %q;\n", n)
	}
	for _, e := range edges {
		fmt.Fprintf(&b, "  %q -> %q [label=\"%.0f MB/s\"];\n",
			string(e.From), string(e.To), e.MBs(rate))
	}
	b.WriteString("}\n")
	return b.String(), nil
}
