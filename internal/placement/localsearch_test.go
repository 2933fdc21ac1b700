package placement

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestLocalSearchValidation(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	complete := Placement{Hosts: []graph.NodeID{0, 1}}
	if _, err := LocalSearch(inst, nil, complete, 0); err == nil {
		t.Fatal("nil objective should error")
	}
	if _, err := LocalSearch(inst, NewCoverage(), NewPlacement(1), 0); err == nil {
		t.Fatal("wrong-length placement should error")
	}
	if _, err := LocalSearch(inst, NewCoverage(), NewPlacement(2), 0); err == nil {
		t.Fatal("incomplete placement should error")
	}
}

func TestLocalSearchNeverWorsens(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	inst := fig1Instance(t, 3, 0.5)
	obj := mustObj(NewDistinguishability(1))
	for trial := 0; trial < 10; trial++ {
		start, err := Random(inst, obj, rng)
		if err != nil {
			t.Fatal(err)
		}
		improved, err := LocalSearch(inst, obj, start.Placement, 0)
		if err != nil {
			t.Fatal(err)
		}
		if improved.Value < start.Value {
			t.Fatalf("trial %d: local search worsened %v → %v", trial, start.Value, improved.Value)
		}
		// The result must be a genuine local optimum: no single move
		// improves it.
		for s := 0; s < inst.NumServices(); s++ {
			orig := improved.Placement.Hosts[s]
			for _, h := range inst.Candidates(s) {
				trialPl := improved.Placement.Clone()
				trialPl.Hosts[s] = h
				v, err := EvaluateWith(inst, obj, trialPl)
				if err != nil {
					t.Fatal(err)
				}
				if v > improved.Value {
					t.Fatalf("trial %d: move s%d %d→%d improves %v → %v; not a local optimum",
						trial, s, orig, h, improved.Value, v)
				}
			}
		}
	}
}

func TestLocalSearchRespectsMaxMoves(t *testing.T) {
	inst := fig1Instance(t, 3, 0.5)
	obj := mustObj(NewDistinguishability(1))
	// Start from the QoS placement (all on r), which has room to improve.
	start, err := QoS(inst, obj)
	if err != nil {
		t.Fatal(err)
	}
	one, err := LocalSearch(inst, obj, start.Placement, 1)
	if err != nil {
		t.Fatal(err)
	}
	full, err := LocalSearch(inst, obj, start.Placement, 0)
	if err != nil {
		t.Fatal(err)
	}
	if one.Value > full.Value {
		t.Fatal("capped search cannot beat uncapped")
	}
	// One move changes at most one host.
	diff := 0
	for s := range start.Placement.Hosts {
		if one.Placement.Hosts[s] != start.Placement.Hosts[s] {
			diff++
		}
	}
	if diff > 1 {
		t.Fatalf("maxMoves=1 changed %d hosts", diff)
	}
}

func TestGreedyWithLocalSearchAtLeastGreedy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 5; trial++ {
		g, err := topology.RandomConnected(10, 16, rng.Int63())
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
		}, 0.8)
		if err != nil {
			t.Fatal(err)
		}
		obj := mustObj(NewDistinguishability(1))
		plain, err := runWith(inst, obj, Options{Engine: Eager})
		if err != nil {
			t.Fatal(err)
		}
		polished, err := GreedyWithLocalSearch(inst, obj, 0)
		if err != nil {
			t.Fatal(err)
		}
		if polished.Value < plain.Value {
			t.Fatalf("trial %d: polish lost value %v → %v", trial, plain.Value, polished.Value)
		}
		if polished.Evaluations <= plain.Evaluations {
			t.Fatal("polish evaluations should include greedy's")
		}
		if !polished.Placement.Complete() {
			t.Fatal("polished placement incomplete")
		}
	}
}
