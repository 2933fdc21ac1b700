package topology

import (
	"fmt"
	"math/rand"

	"repro/internal/graph"
)

// This file generates large hierarchical ISP topologies — the
// core/aggregation/edge/access structure of a production network at
// 10k–100k nodes, far beyond the Table I maps. The paper's evaluation
// tops out at AT&T (108 nodes), but its submodularity results hold at
// any scale; these generators supply the instances on which the
// placement engines and network re-placement are exercised and
// benchmarked at scale.

// HierarchySpec describes a synthetic hierarchical ISP: a ring-plus-
// chords backbone of core routers, a dual-homed aggregation tier per
// core, an edge-router tier per aggregation router, and degree-1 access
// hosts hanging off every edge router. All randomness (chord endpoints,
// dual-home uplinks) is drawn from Seed, so a spec always builds the
// same graph.
type HierarchySpec struct {
	// Name labels the topology in specs and experiment output.
	Name string
	// Core is the number of backbone routers (≥ 3; they form a ring).
	Core int
	// AggPerCore is the number of aggregation routers under each core
	// router (≥ 1). Each is homed to its core router and dual-homed to a
	// second, randomly chosen one.
	AggPerCore int
	// EdgePerAgg is the number of edge routers under each aggregation
	// router (≥ 1). With more than one aggregation router per core, each
	// edge router is dual-homed to a random sibling aggregation router.
	EdgePerAgg int
	// HostsPerEdge is the number of degree-1 access hosts per edge
	// router (≥ 1). Hosts are the dangling nodes and become the
	// candidate client set.
	HostsPerEdge int
	// Seed drives every random choice in the construction.
	Seed int64
}

// NumNodes returns the total node count the spec builds:
// Core · (1 + AggPerCore · (1 + EdgePerAgg · (1 + HostsPerEdge))).
func (hs HierarchySpec) NumNodes() int {
	return hs.Core * (1 + hs.AggPerCore*(1+hs.EdgePerAgg*(1+hs.HostsPerEdge)))
}

// Hierarchy10k and Hierarchy100k are the reference specs the
// large-scale placement benchmarks run against: ~10k and ~100k nodes
// with production-like tier fan-outs.
var (
	Hierarchy10k  = HierarchySpec{Name: "hier-10k", Core: 8, AggPerCore: 4, EdgePerAgg: 8, HostsPerEdge: 38, Seed: 2001}
	Hierarchy100k = HierarchySpec{Name: "hier-100k", Core: 10, AggPerCore: 5, EdgePerAgg: 10, HostsPerEdge: 198, Seed: 2002}
)

// HierarchyForNodes returns a spec of roughly n total nodes (within one
// host per edge router) using the reference fan-outs: 8 cores, 4
// aggregation routers each, 8 edge routers per aggregation. The host
// tier absorbs the remainder, mirroring how real networks scale —
// access grows, the backbone does not.
func HierarchyForNodes(name string, n int, seed int64) HierarchySpec {
	hs := HierarchySpec{Name: name, Core: 8, AggPerCore: 4, EdgePerAgg: 8, Seed: seed}
	if n < 2000 {
		hs.Core, hs.AggPerCore, hs.EdgePerAgg = 4, 2, 3
	}
	infra := hs.Core * (1 + hs.AggPerCore*(1+hs.EdgePerAgg))
	edges := hs.Core * hs.AggPerCore * hs.EdgePerAgg
	hosts := (n - infra + edges/2) / edges
	if hosts < 1 {
		hosts = 1
	}
	hs.HostsPerEdge = hosts
	return hs
}

// BuildHierarchy generates the hierarchical topology for a spec. The
// construction is deterministic in the spec:
//
//  1. core routers in a ring, plus ⌈Core/2⌉ random chord links for
//     backbone redundancy;
//  2. each aggregation router linked to its own core router and
//     dual-homed to a second random core;
//  3. each edge router linked to its aggregation router and, when the
//     core has more than one aggregation router, dual-homed to a random
//     sibling;
//  4. HostsPerEdge degree-1 access hosts per edge router.
//
// The result is connected; the returned Topology's Spec carries the
// realized node/link/dangling counts (so Verify applies) and
// CandidateClients is the full host tier.
func BuildHierarchy(hs HierarchySpec) (*Topology, error) {
	switch {
	case hs.Core < 3:
		return nil, fmt.Errorf("topology: %s: hierarchy needs ≥ 3 core routers, got %d", hs.Name, hs.Core)
	case hs.AggPerCore < 1 || hs.EdgePerAgg < 1 || hs.HostsPerEdge < 1:
		return nil, fmt.Errorf("topology: %s: hierarchy fan-outs must be ≥ 1", hs.Name)
	}
	rng := rand.New(rand.NewSource(hs.Seed))
	numAgg := hs.Core * hs.AggPerCore
	numEdge := numAgg * hs.EdgePerAgg
	numHosts := numEdge * hs.HostsPerEdge
	aggBase := hs.Core
	edgeBase := aggBase + numAgg
	hostBase := edgeBase + numEdge

	g := graph.New(hostBase + numHosts)
	for v := 0; v < hs.Core; v++ {
		g.SetLabel(v, fmt.Sprintf("%s-core%d", hs.Name, v))
	}

	// Step 1: core ring + chords. AddEdge rejects duplicates, so a chord
	// that collides with the ring (or an earlier chord) is simply
	// re-drawn; the loop is bounded because the backbone is tiny.
	for i := 0; i < hs.Core; i++ {
		mustAdd(g, i, (i+1)%hs.Core)
	}
	if hs.Core > 3 {
		for placed := 0; placed < (hs.Core+1)/2; {
			u := rng.Intn(hs.Core)
			v := rng.Intn(hs.Core)
			if u == v {
				continue
			}
			if g.AddEdge(u, v) == nil {
				placed++
			}
		}
	}

	// Step 2: aggregation tier, dual-homed across cores.
	for a := 0; a < numAgg; a++ {
		core := a / hs.AggPerCore
		agg := aggBase + a
		g.SetLabel(agg, fmt.Sprintf("%s-agg%d.%d", hs.Name, core, a%hs.AggPerCore))
		mustAdd(g, core, agg)
		backup := (core + 1 + rng.Intn(hs.Core-1)) % hs.Core
		mustAdd(g, backup, agg)
	}

	// Step 3: edge tier, dual-homed across sibling aggregation routers
	// under the same core.
	for e := 0; e < numEdge; e++ {
		a := e / hs.EdgePerAgg
		core := a / hs.AggPerCore
		edge := edgeBase + e
		g.SetLabel(edge, fmt.Sprintf("%s-edge%d.%d", hs.Name, a, e%hs.EdgePerAgg))
		mustAdd(g, aggBase+a, edge)
		if hs.AggPerCore > 1 {
			sib := a%hs.AggPerCore + 1 + rng.Intn(hs.AggPerCore-1)
			sibling := core*hs.AggPerCore + sib%hs.AggPerCore
			mustAdd(g, aggBase+sibling, edge)
		}
	}

	// Step 4: access hosts — the dangling tier and candidate clients.
	clients := make([]graph.NodeID, 0, numHosts)
	for h := 0; h < numHosts; h++ {
		host := hostBase + h
		g.SetLabel(host, fmt.Sprintf("%s-host%d", hs.Name, h))
		mustAdd(g, edgeBase+h/hs.HostsPerEdge, host)
		clients = append(clients, host)
	}

	topo := &Topology{
		Spec: Spec{
			Name:     hs.Name,
			Nodes:    g.NumNodes(),
			Links:    g.NumEdges(),
			Dangling: len(g.DanglingNodes()),
			Seed:     hs.Seed,
		},
		Graph:            g,
		CandidateClients: clients,
	}
	if err := topo.Verify(); err != nil {
		return nil, err
	}
	return topo, nil
}
