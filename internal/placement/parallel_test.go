package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestGreedyParallelMatchesSequential(t *testing.T) {
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
			seq, err := runWith(inst, obj, Options{Engine: Eager})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{0, 1, 3, 16} {
				par, err := runWith(inst, obj, Options{Engine: Eager, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(par.Placement.Hosts, seq.Placement.Hosts) {
					t.Fatalf("trial %d %s workers=%d: hosts %v != sequential %v",
						trial, obj.Name(), workers, par.Placement.Hosts, seq.Placement.Hosts)
				}
				if par.Value != seq.Value {
					t.Fatalf("trial %d %s workers=%d: value %v != %v",
						trial, obj.Name(), workers, par.Value, seq.Value)
				}
				if !reflect.DeepEqual(par.Order, seq.Order) {
					t.Fatalf("trial %d %s: placement order differs", trial, obj.Name())
				}
				if par.Evaluations != seq.Evaluations {
					t.Fatalf("trial %d %s: evaluation counts differ (%d vs %d)",
						trial, obj.Name(), par.Evaluations, seq.Evaluations)
				}
			}
		}
	}
}

func TestGreedyParallelValidation(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	if _, err := runWith(inst, nil, Options{Engine: Eager, Workers: 2}); err == nil {
		t.Fatal("nil objective should error")
	}
}

func TestGreedyParallelOnPaperWorkload(t *testing.T) {
	topo := topology.MustBuild(topology.Tiscali)
	r, err := routing.New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]Service, 3)
	for s := range services {
		services[s] = Service{Name: "svc", Clients: topo.CandidateClients[3*s : 3*s+3]}
	}
	inst, err := NewInstance(r, services, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	obj := mustObj(NewDistinguishability(1))
	seq, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	par, err := runWith(inst, obj, Options{Engine: Eager, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(par.Placement.Hosts, seq.Placement.Hosts) {
		t.Fatalf("parallel %v != sequential %v", par.Placement.Hosts, seq.Placement.Hosts)
	}
}
