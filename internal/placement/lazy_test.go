package placement

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// TestGreedyLazyMatchesGreedy is the bit-for-bit identity property: across
// seeded random topologies and all three objectives, the CELF engine must
// return the same hosts, value, and placement order as the eager engine — and
// for submodular objectives it must get there with no more evaluations.
func TestGreedyLazyMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(137))
	objectives := func() []Objective {
		return []Objective{
			NewCoverage(),
			mustObj(NewIdentifiability(1)),
			mustObj(NewDistinguishability(1)),
		}
	}
	for trial := 0; trial < 6; trial++ {
		g, err := topology.RandomConnected(12, 20, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.New(g)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(r, []Service{
			{Name: "a", Clients: []graph.NodeID{0, 1}},
			{Name: "b", Clients: []graph.NodeID{2, 3}},
			{Name: "c", Clients: []graph.NodeID{4, 5}},
		}, 0.7)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range objectives() {
			exact, err := runWith(inst, obj, Options{Engine: Eager})
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := runWith(inst, obj, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lazy.Placement.Hosts, exact.Placement.Hosts) {
				t.Fatalf("trial %d %s: hosts %v != greedy %v",
					trial, obj.Name(), lazy.Placement.Hosts, exact.Placement.Hosts)
			}
			if lazy.Value != exact.Value {
				t.Fatalf("trial %d %s: value %v != %v", trial, obj.Name(), lazy.Value, exact.Value)
			}
			if !reflect.DeepEqual(lazy.Order, exact.Order) {
				t.Fatalf("trial %d %s: order %v != %v", trial, obj.Name(), lazy.Order, exact.Order)
			}
			if IsSubmodular(obj) && lazy.Evaluations > exact.Evaluations {
				t.Fatalf("trial %d %s: lazy used %d evaluations, greedy only %d",
					trial, obj.Name(), lazy.Evaluations, exact.Evaluations)
			}
		}
	}
}

// TestGreedyLazyParallelMatchesGreedy checks the batched engine across
// worker counts. Its evaluation count may exceed the sequential lazy
// engine's (a batch can refresh entries that turn out unnecessary) but
// never the full per-round sweeps of the eager engine.
func TestGreedyLazyParallelMatchesGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(731))
	for trial := 0; trial < 4; trial++ {
		g, err := topology.RandomConnected(14, 24, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.New(g)
		if err != nil {
			t.Fatal(err)
		}
		inst, err := NewInstance(r, []Service{
			{Name: "a", Clients: []graph.NodeID{0, 1}},
			{Name: "b", Clients: []graph.NodeID{2, 3}},
			{Name: "c", Clients: []graph.NodeID{4, 5}},
			{Name: "d", Clients: []graph.NodeID{6, 7}},
		}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range []Objective{NewCoverage(), mustObj(NewDistinguishability(1))} {
			exact, err := runWith(inst, obj, Options{Engine: Eager})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 3, 16} {
				lazy, err := runWith(inst, obj, Options{Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(lazy.Placement.Hosts, exact.Placement.Hosts) {
					t.Fatalf("trial %d %s workers=%d: hosts %v != greedy %v",
						trial, obj.Name(), workers, lazy.Placement.Hosts, exact.Placement.Hosts)
				}
				if lazy.Value != exact.Value || !reflect.DeepEqual(lazy.Order, exact.Order) {
					t.Fatalf("trial %d %s workers=%d: value/order diverge", trial, obj.Name(), workers)
				}
				if lazy.Evaluations > exact.Evaluations {
					t.Fatalf("trial %d %s workers=%d: lazy used %d evaluations, greedy %d",
						trial, obj.Name(), workers, lazy.Evaluations, exact.Evaluations)
				}
			}
		}
	}
}

// TestGreedyLazyIdentifiabilityFallsBack pins the regression the paper's
// Propositions 15 and 16 demand: identifiability is not submodular, so the
// lazy engine must route it through the eager engine — the Result must
// match the eager engine's exactly, including the evaluation count (the lazy
// heap would use strictly fewer on this instance).
func TestGreedyLazyIdentifiabilityFallsBack(t *testing.T) {
	inst := fig1Instance(t, 3, 0.7)
	for _, obj := range []Objective{
		mustObj(NewIdentifiability(1)),
		NewIdentifiabilityOfInterest(inst.NumNodes(), []int{0, 1, 2, 3}),
	} {
		exact, err := runWith(inst, obj, Options{Engine: Eager})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := runWith(inst, obj, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lazy, exact) {
			t.Fatalf("%s: lazy engine did not fall back to the eager engine: %+v vs %+v",
				obj.Name(), lazy, exact)
		}
		par, err := runWith(inst, obj, Options{Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		seqPar, err := runWith(inst, obj, Options{Engine: Eager, Workers: 3})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(par, seqPar) {
			t.Fatalf("%s: parallel lazy engine did not fall back to the parallel eager engine", obj.Name())
		}
	}
}

// TestGreedyLazySavesEvaluations demonstrates the CELF win on real
// workloads: strictly fewer evaluations already at the paper's 7 AT&T
// services, and at the 20-service scale the benchmarks record, at least
// 2× fewer — the evaluation savings grow with the service count because
// the initial sweep is paid once instead of once per round.
func TestGreedyLazySavesEvaluations(t *testing.T) {
	topo := topology.MustBuild(topology.ATT)
	r, err := routing.New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	buildServices := func(count int) []Service {
		services := make([]Service, count)
		pool := topo.CandidateClients
		next := 0
		for s := range services {
			clients := make([]graph.NodeID, 0, 3)
			seen := map[graph.NodeID]bool{}
			for len(clients) < 3 {
				c := pool[next%len(pool)]
				next++
				if !seen[c] {
					seen[c] = true
					clients = append(clients, c)
				}
			}
			services[s] = Service{Name: "svc", Clients: clients}
		}
		return services
	}
	obj := mustObj(NewDistinguishability(1))
	for _, tc := range []struct {
		services int
		factor   int // required: factor × lazy ≤ greedy
	}{
		{services: 7, factor: 1},
		{services: 20, factor: 2},
	} {
		inst, err := NewInstance(r, buildServices(tc.services), 0.6)
		if err != nil {
			t.Fatal(err)
		}
		exact, err := runWith(inst, obj, Options{Engine: Eager})
		if err != nil {
			t.Fatal(err)
		}
		lazy, err := runWith(inst, obj, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(lazy.Placement.Hosts, exact.Placement.Hosts) || lazy.Value != exact.Value {
			t.Fatalf("%d services: lazy %v (%v) != greedy %v (%v)", tc.services,
				lazy.Placement.Hosts, lazy.Value, exact.Placement.Hosts, exact.Value)
		}
		if lazy.Evaluations >= exact.Evaluations {
			t.Fatalf("%d services: lazy used %d evaluations, greedy %d",
				tc.services, lazy.Evaluations, exact.Evaluations)
		}
		if tc.factor*lazy.Evaluations > exact.Evaluations {
			t.Fatalf("%d services: expected ≥%d× fewer evaluations, got lazy %d vs greedy %d",
				tc.services, tc.factor, lazy.Evaluations, exact.Evaluations)
		}
	}
}

// TestGreedyLazyK2Distinguishability exercises the enumeration evaluator
// (k ≥ 2) through the lazy path on a small instance.
func TestGreedyLazyK2Distinguishability(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	obj := mustObj(NewDistinguishability(2))
	exact, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	lazy, err := runWith(inst, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(lazy.Placement.Hosts, exact.Placement.Hosts) || lazy.Value != exact.Value {
		t.Fatalf("k=2: lazy %v (%v) != greedy %v (%v)",
			lazy.Placement.Hosts, lazy.Value, exact.Placement.Hosts, exact.Value)
	}
}

func TestGreedyLazyValidation(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	if _, err := runWith(inst, nil, Options{}); err == nil {
		t.Fatal("nil objective should error")
	}
	if _, err := runWith(inst, nil, Options{Workers: 2}); err == nil {
		t.Fatal("nil objective should error")
	}
}

// TestRunOptionValidation: options no engine can honour are refused
// before any work, whatever the objective.
func TestRunOptionValidation(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	for _, obj := range []Objective{NewCoverage(), mustObj(NewIdentifiability(1))} {
		for name, opts := range map[string]Options{
			"unknown engine":   {Engine: Stochastic + 1},
			"stochastic eps 0": {Engine: Stochastic},
		} {
			if res, err := runWith(inst, obj, opts); err == nil {
				t.Errorf("%s/%s: accepted, placed %v", obj.Name(), name, res.Placement.Hosts)
			}
		}
	}
}

// TestElementPathsDistinct pins why the engines evaluate an element's
// paths as stored: every path of an element ends at its host and is read
// from the host's shortest-path tree, so two clients with equal paths
// would each be the other's ancestor in that tree, that is the same
// client, and a repeated client is rejected. It checks every pair of
// paths of every element, on the paper's topologies and on generated
// hierarchies, with hop-count and with weighted routing.
func TestElementPathsDistinct(t *testing.T) {
	type network struct {
		name    string
		g       *graph.Graph
		clients []graph.NodeID
	}
	var networks []network
	for _, spec := range topology.Specs() {
		topo := topology.MustBuild(spec)
		weighted, err := topology.BuildWeighted(spec, 1, 10, 7)
		if err != nil {
			t.Fatal(err)
		}
		networks = append(networks,
			network{spec.Name, topo.Graph, topo.CandidateClients},
			network{spec.Name + "/weighted", weighted.Graph, weighted.CandidateClients})
	}
	for _, n := range []int{300, 1000} {
		topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", n, 1))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(n)))
		weighted := graph.New(topo.Graph.NumNodes())
		for _, e := range topo.Graph.Edges() {
			if err := weighted.AddWeightedEdge(e.U, e.V, 1+3*rng.Float64()); err != nil {
				t.Fatal(err)
			}
		}
		name := fmt.Sprintf("hierarchy-%d", n)
		networks = append(networks,
			network{name, topo.Graph, topo.CandidateClients},
			network{name + "/weighted", weighted, topo.CandidateClients})
	}
	for _, nw := range networks {
		r, err := routing.NewLazy(nw.g)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewInstance(r, []Service{
			{Name: "dup", Clients: []graph.NodeID{nw.clients[0], nw.clients[1], nw.clients[0]}},
		}, 0.8); err == nil {
			t.Fatalf("%s: duplicate clients should be rejected at instance construction", nw.name)
		}
		var services []Service
		for s := 0; s < 3 && (s+1)*4 <= len(nw.clients); s++ {
			services = append(services, Service{Name: fmt.Sprint(s), Clients: nw.clients[s*4 : (s+1)*4]})
		}
		inst, err := NewInstance(r, services, 0.5)
		if err != nil {
			t.Fatalf("%s: %v", nw.name, err)
		}
		for _, el := range inst.elements {
			for i := range el.paths {
				for j := i + 1; j < len(el.paths); j++ {
					if el.paths[i].Equal(el.paths[j]) {
						t.Fatalf("%s: service %d host %d: clients %d and %d share a path",
							nw.name, el.service, el.host, inst.services[el.service].Clients[i], inst.services[el.service].Clients[j])
					}
				}
			}
		}
	}
}
