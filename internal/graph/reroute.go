package graph

// Diff returns the edges of prev that g lacks and the edges of g that
// prev lacks, compared by endpoints with HasEdge both ways in O(E·deg).
// It is the change Reroute carries a tree of prev across.
func (g *Graph) Diff(prev *Graph) (removed, added []Edge) {
	for _, e := range prev.edges {
		if !g.HasEdge(e.U, e.V) {
			removed = append(removed, e)
		}
	}
	for _, e := range g.edges {
		if !prev.HasEdge(e.U, e.V) {
			added = append(added, e)
		}
	}
	return removed, added
}

// Reroute returns the tree Dijkstra(old.Source) builds on g, given old,
// the same source's tree on a graph that differs from g by exactly the
// edges removed and added (see Diff), and searches only when the change
// may move a distance.
//
// Let h be old's hop counts. In a breadth-first tree every edge joins
// nodes whose h differ by at most one, and nodes the source cannot reach
// only to each other. When every added edge does the same, no path of g
// is shorter than h. When, moreover, every reachable endpoint of a
// changed edge other than the source keeps a neighbour in g one hop
// nearer, every node keeps a path of length h, since a node that is no
// endpoint keeps its old parent edge. Then h is g's hop count too, and
// only the endpoints' parents can move: each to its smallest neighbour
// one hop nearer, the tie-break Dijkstra keeps. Reroute returns old
// itself when no parent moves, and otherwise a tree with a copy of old's
// parents that shares its hop counts. When either condition fails, or
// either graph routes by weight, it builds the tree by search.
//
// The check costs O(Σ deg) over the endpoints of the changed edges and
// needs no order or index over removed and added.
func (g *Graph) Reroute(old *ShortestPathTree, removed, added []Edge) *ShortestPathTree {
	src, h := old.Source, old.hops
	if g.weighted || h == nil || len(h) != len(g.adj) {
		return g.Dijkstra(src)
	}
	for _, e := range added {
		hu, hv := h[e.U], h[e.V]
		if (hu < 0) != (hv < 0) || hu-hv > 1 || hv-hu > 1 {
			return g.Dijkstra(src)
		}
	}
	var parent []int32 // nil until an endpoint's parent moves
	for _, changed := range [2][]Edge{removed, added} {
		for _, e := range changed {
			for _, x := range [2]NodeID{e.U, e.V} {
				if x == src || h[x] < 0 {
					continue
				}
				p := g.nearerNeighbor(x, h)
				if p < 0 {
					return g.Dijkstra(src)
				}
				if p != old.parent[x] {
					if parent == nil {
						parent = append([]int32(nil), old.parent...)
					}
					parent[x] = p
				}
			}
		}
	}
	if parent == nil {
		return old
	}
	return &ShortestPathTree{Source: src, parent: parent, hops: h}
}

// nearerNeighbor returns x's smallest neighbour in g whose hop count in h
// is one less than x's, or -1 when it has none.
func (g *Graph) nearerNeighbor(x NodeID, h []int32) int32 {
	best := int32(-1)
	for _, nb := range g.adj[x] {
		if h[nb.to] == h[x]-1 && (best < 0 || int32(nb.to) < best) {
			best = int32(nb.to)
		}
	}
	return best
}
