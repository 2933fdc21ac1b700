package graph_test

import (
	"math/rand"
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

var maxHopsSink [][]int32

// BenchmarkMaxHops times the largest hop counts from every node to each
// of a placement's client sets, over generated hierarchies shaped like
// the observe benchmark's tenants (~2 000 nodes, 8 sets × 32 clients)
// and the replan benchmark's large one (~5 000 nodes, 8 × 10). The sweep
// rows run MaxHops; the trees rows fold one Dijkstra per client by
// maximum, the path the QoS profile keeps for weighted graphs.
func BenchmarkMaxHops(b *testing.B) {
	for _, shape := range []struct {
		name                 string
		nodes, sets, clients int
	}{{"observe", 2000, 8, 32}, {"replan", 5000, 8, 10}} {
		topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", shape.nodes, 1))
		if err != nil {
			b.Fatal(err)
		}
		g := topo.Graph
		perm := rand.New(rand.NewSource(1)).Perm(len(topo.CandidateClients))
		sets := make([][]graph.NodeID, shape.sets)
		for i := range sets {
			for j := range shape.clients {
				sets[i] = append(sets[i], topo.CandidateClients[perm[i*shape.clients+j]])
			}
		}
		b.Run(shape.name+"/sweep", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				maxHopsSink = g.MaxHops(sets)
			}
		})
		b.Run(shape.name+"/trees", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				out := make([][]int32, len(sets))
				for s, set := range sets {
					out[s] = make([]int32, g.NumNodes())
					for _, c := range set {
						t := g.Dijkstra(c)
						for v, d := range out[s] {
							if h := int32(t.Dist(v)); d >= 0 && (h < 0 || h > d) {
								out[s][v] = h
							}
						}
					}
				}
				maxHopsSink = out
			}
		})
	}
}
