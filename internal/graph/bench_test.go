package graph_test

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/topology"
)

var treeSink *graph.ShortestPathTree

// BenchmarkShortestPathTree times one shortest-path tree over a generated
// hierarchy the size of the replan benchmark's large tenant (~5 000
// nodes), rooted at every node in turn. The unit row takes the
// breadth-first path; the weighted row has the same edges at weight 2,
// which routes identically but takes the binary-heap path.
func BenchmarkShortestPathTree(b *testing.B) {
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", 5000, 1))
	if err != nil {
		b.Fatal(err)
	}
	unit := topo.Graph
	weighted := graph.New(unit.NumNodes())
	for _, e := range unit.Edges() {
		if err := weighted.AddWeightedEdge(e.U, e.V, 2); err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range []struct {
		name string
		g    *graph.Graph
	}{{"unit", unit}, {"weighted", weighted}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			n := c.g.NumNodes()
			for i := 0; i < b.N; i++ {
				treeSink = c.g.Dijkstra(i % n)
			}
		})
	}
}
