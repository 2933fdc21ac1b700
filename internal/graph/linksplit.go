package graph

import "fmt"

// SplitLinks implements the paper's Section II-A device for monitoring
// link failures with a node-failure model: every link {u, v} is replaced
// by a logical link-node L with edges u—L and L—v. A failure of L in the
// transformed graph is exactly a failure of the original link, so the
// whole monitoring stack (routing, placement, tomography) applies
// unchanged, now observing both node and link failures.
//
// The transformed graph has NumNodes()+NumEdges() nodes; original node
// IDs are preserved, and linkNodes[i] is the logical node of Edges()[i].
// Link-node edges inherit half the original weight each, preserving
// shortest-path structure (every original path doubles in weighted
// length, uniformly). Link nodes are labeled "link(u-v)".
func (g *Graph) SplitLinks() (*Graph, []NodeID) {
	n := g.NumNodes()
	edges := g.Edges()
	out := New(n + len(edges))
	for v, l := range g.labels {
		out.SetLabel(v, l)
	}
	linkNodes := make([]NodeID, len(edges))
	for i, e := range edges {
		l := n + i
		linkNodes[i] = l
		out.SetLabel(l, fmt.Sprintf("link(%s-%s)", g.Label(e.U), g.Label(e.V)))
		// Errors are impossible: the source graph is simple, every new
		// node touches exactly one original edge, and weights are halved
		// positives.
		if err := out.AddWeightedEdge(e.U, l, e.Weight/2); err != nil {
			panic(fmt.Sprintf("graph: split links: %v", err))
		}
		if err := out.AddWeightedEdge(l, e.V, e.Weight/2); err != nil {
			panic(fmt.Sprintf("graph: split links: %v", err))
		}
	}
	return out, linkNodes
}
