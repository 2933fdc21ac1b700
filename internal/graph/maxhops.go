package graph

import "slices"

// MaxHops returns, for each source set in sets, the largest hop count
// from any of its sources to every node: out[i][v] is max over s in
// sets[i] of the hops from s to v, or −1 when some source of sets[i]
// cannot reach v. It counts hops whatever the edges weigh, so on a
// weighted graph (see Weighted) the values are not routing distances. A
// source repeated within or across sets is searched once, and an empty
// set reads 0 at every node.
//
// It is a multi-source bit-parallel breadth-first search (Then et al.,
// "The More the Merrier: Efficient Multi-Source Graph Traversal", VLDB
// 2015). The distinct sources of all the sets are swept 64 at a time,
// one bit each in a word per node. A node joins the frontier only at the
// levels where some sources first reach it, carrying exactly their bits,
// and passes on to each neighbour the bits that neighbour has not seen:
// it is expanded at most once per source, so a sweep scans no more edges
// than one breadth-first search per source does. A set's largest hop
// count at a node is the last level at which a bit of that set arrives
// there. A call allocates three words and two int32s per node for the
// sweep, besides the n int32s per set it returns, where one
// shortest-path tree per source would keep 8 bytes per node per source.
func (g *Graph) MaxHops(sets [][]NodeID) [][]int32 {
	n := len(g.adj)
	out := make([][]int32, len(sets))
	for i := range out {
		out[i] = make([]int32, n)
	}
	// Number the distinct sources in order of first appearance: source k
	// is bit k%64 of batch k/64.
	index := make(map[NodeID]int)
	var sources []NodeID
	for _, set := range sets {
		for _, s := range set {
			g.mustHave(s)
			if _, ok := index[s]; !ok {
				index[s] = len(sources)
				sources = append(sources, s)
			}
		}
	}

	seen := make([]uint64, n)  // the batch's sources that have reached each node
	visit := make([]uint64, n) // the sources that reached each frontier node at this level
	next := make([]uint64, n)  // the sources that reach each node at the next level
	frontier := make([]int32, 0, n)
	grown := make([]int32, 0, n)
	// touched holds the sets with a source in the batch: their bits in it
	// and their results.
	type setBits struct {
		mask uint64
		out  []int32
	}
	var touched []setBits
	for b := 0; b*64 < len(sources); b++ {
		batch := sources[b*64 : min(b*64+64, len(sources))]
		touched = touched[:0]
		for i, set := range sets {
			var mask uint64
			for _, s := range set {
				if k := index[s]; k/64 == b {
					mask |= 1 << (k % 64)
				}
			}
			if mask != 0 {
				touched = append(touched, setBits{mask, out[i]})
			}
		}
		clear(seen)
		frontier = frontier[:0]
		for k, s := range batch {
			frontier = append(frontier, int32(s))
			visit[s] = 1 << k
			seen[s] = 1 << k
		}
		for level := int32(0); len(frontier) > 0; level++ {
			grown = grown[:0]
			for _, v := range frontier {
				arrived := visit[v]
				visit[v] = 0
				for _, t := range touched {
					if arrived&t.mask != 0 {
						if o := t.out[v]; o >= 0 && o < level {
							t.out[v] = level
						}
					}
				}
				for _, nb := range g.adj[v] {
					if fresh := arrived &^ seen[nb.to]; fresh != 0 {
						if next[nb.to] == 0 {
							grown = append(grown, int32(nb.to))
						}
						next[nb.to] |= fresh
					}
				}
			}
			for _, u := range grown {
				seen[u] |= next[u]
			}
			// visit is all zero again: only frontier nodes held bits.
			visit, next = next, visit
			frontier, grown = grown, frontier
		}
		// A node some source of the batch missed reads −1 for every set
		// with that source; −1 is final, since updates need a value ≥ 0.
		if all := ^uint64(0) >> (64 - len(batch)); slices.ContainsFunc(seen, func(s uint64) bool { return s != all }) {
			for _, t := range touched {
				for v, s := range seen {
					if s&t.mask != t.mask {
						t.out[v] = -1
					}
				}
			}
		}
	}
	return out
}
