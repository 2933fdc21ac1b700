package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"time"

	placemon "repro"
	"repro/internal/topology"
	"repro/placemonclient"
)

// tenant is one generated monitoring scenario: the document the daemon
// receives plus what the benchmark keeps to generate batches and check
// answers against the facade.
type tenant struct {
	id       string
	spec     []byte
	numNodes int
	edges    [][2]int
	services []placemon.Service
	alpha    float64
	hosts    []int
	// paths[i] is connection i's routed node set, in the daemon's
	// connection order (services in order, each service's clients in
	// order).
	paths [][]int
	nw    *placemon.Network
	// routers are the non-host nodes, where one-link deltas are drawn.
	routers []int
	// base is the facade's observation of the deployed placement with
	// nothing failed; the model localizes copies of it.
	base *placemon.Observation
	// localized caches the facade's diagnosis per set of down
	// connections.
	localized map[string]localized
}

// tenantShape fixes a generated scenario's size.
type tenantShape struct {
	nodes      int
	services   int
	clientsPer int
	alpha      float64
}

var (
	// observeShape is the per-batch ingest tenant: 256 connections.
	observeShape = tenantShape{nodes: 2000, services: 8, clientsPer: 32, alpha: 0.3}
	// replanShape is the placement tenant, past the paper's topologies.
	replanShape = tenantShape{nodes: 5000, services: 8, clientsPer: 10, alpha: 0.3}
)

// newTenant generates a scenario: a seeded hierarchy from
// internal/topology, clients drawn from its host tier, and the facade's
// placement of the services as the deployed placement.
func newTenant(id string, shape tenantShape, seed int64) (*tenant, error) {
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes(id, shape.nodes, seed))
	if err != nil {
		return nil, err
	}
	t := &tenant{id: id, numNodes: topo.Graph.NumNodes(), alpha: shape.alpha, localized: map[string]localized{}}
	isHost := make([]bool, t.numNodes)
	for _, c := range topo.CandidateClients {
		isHost[c] = true
	}
	for v := range t.numNodes {
		if !isHost[v] {
			t.routers = append(t.routers, v)
		}
	}
	for _, e := range topo.Graph.Edges() {
		t.edges = append(t.edges, [2]int{int(e.U), int(e.V)})
	}
	if t.nw, err = buildNetwork(t.numNodes, t.edges); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(len(topo.CandidateClients))
	if shape.services*shape.clientsPer > len(perm) {
		return nil, fmt.Errorf("%s: %d hosts cannot give %d×%d clients", id, len(perm), shape.services, shape.clientsPer)
	}
	t.services = make([]placemon.Service, shape.services)
	for s := range t.services {
		t.services[s].Name = fmt.Sprintf("svc-%d", s)
		for c := range shape.clientsPer {
			t.services[s].Clients = append(t.services[s].Clients, int(topo.CandidateClients[perm[s*shape.clientsPer+c]]))
		}
	}
	res, err := t.nw.Place(t.services, placemon.PlaceConfig{Alpha: t.alpha})
	if err != nil {
		return nil, err
	}
	t.hosts = res.Hosts
	for s, h := range t.hosts {
		if h < 0 {
			return nil, fmt.Errorf("%s: service %d unplaced", id, s)
		}
		for _, c := range t.services[s].Clients {
			t.paths = append(t.paths, t.nw.PathNodes(c, h))
		}
	}
	if t.base, err = t.nw.Observe(t.services, t.hosts, t.alpha, nil); err != nil {
		return nil, err
	}
	t.spec, err = json.Marshal(placemon.ScenarioSpec{
		Nodes:     t.numNodes,
		Edges:     t.edges,
		Placement: placemon.NewPlacementFile("", t.alpha, t.services, t.hosts),
	})
	return t, err
}

func buildNetwork(n int, edges [][2]int) (*placemon.Network, error) {
	es := make([]placemon.Edge, len(edges))
	for i, e := range edges {
		es[i] = placemon.Edge{U: e[0], V: e[1]}
	}
	return placemon.NewNetwork(n, es)
}

// batch is one generated observation batch and the failure behind it.
type batch struct {
	failed  int // the failed node, or -1
	reports []placemonclient.Report
}

// batches draws n batches the way loadgen does: each a fresh failure set
// of 0 or 1 nodes (size uniform, node uniform), reporting the state of
// every connection — down iff its path crosses the failed node.
func (t *tenant) batches(n int, seed int64) []batch {
	rng := rand.New(rand.NewSource(seed))
	out := make([]batch, n)
	for i := range out {
		failed := -1
		if rng.Intn(2) == 1 {
			failed = rng.Intn(t.numNodes)
		}
		reps := make([]placemonclient.Report, len(t.paths))
		for c, p := range t.paths {
			reps[c] = placemonclient.Report{Connection: c, Up: !slices.Contains(p, failed)}
		}
		out[i] = batch{failed: failed, reports: reps}
	}
	return out
}

// delta returns the base network plus one new link between two routers
// that are not yet adjacent, drawn from rng.
func (t *tenant) delta(rng *rand.Rand) [][2]int {
	adj := make(map[[2]int]bool, len(t.edges))
	for _, e := range t.edges {
		adj[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	for {
		u, v := t.routers[rng.Intn(len(t.routers))], t.routers[rng.Intn(len(t.routers))]
		if u == v || adj[[2]int{min(u, v), max(u, v)}] {
			continue
		}
		return append(slices.Clone(t.edges), [2]int{u, v})
	}
}

// schedule plans an open loop: n = rate·seconds arrivals, arrival i due at
// i/rate plus a uniform jitter within its own slot.
func schedule(rate, seconds float64, seed int64) []time.Duration {
	n := int(rate * seconds)
	interval := time.Duration(float64(time.Second) / rate)
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	for i := range out {
		out[i] = time.Duration(i)*interval + time.Duration(rng.Int63n(int64(interval)))
	}
	return out
}

// topologySeed seeds a scenario's hierarchy, clients and deployed
// placement. It depends on the scenario's name, not on --seed, so every
// run of a workload hosts the same scenarios and does the same work;
// --seed drives what happens to them (failures, arrival times, network
// deltas). With hierarchies drawn from --seed, the replan scenario's
// placement took 0.13 s on one seed and 0.82 s on another, and heap, set-up
// time and CPU per operation moved with the draw by up to 40 %.
func topologySeed(name string) int64 { return subSeed(0, name) }

// subSeed derives an independent seed for one input stream.
func subSeed(seed int64, stream string) int64 {
	h := int64(1469598103934665603)
	for _, c := range stream {
		h = (h ^ int64(c)) * 1099511628211
	}
	return seed*1000003 ^ h
}
