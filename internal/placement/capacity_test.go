package placement

import (
	"testing"

	"repro/internal/graph"
	"repro/internal/matroid"
)

func TestGreedyCapacitatedSpreadsLoad(t *testing.T) {
	// Five unit-demand services, every host capacity 1: no two services
	// may share a node.
	inst := fig1Instance(t, 5, 0.5)
	cons := CapacityConstraints{
		Demand:   []float64{1, 1, 1, 1, 1},
		Capacity: map[graph.NodeID]float64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
	}
	res, err := GreedyCapacitated(inst, mustObj(NewDistinguishability(1)), cons)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Complete() {
		t.Fatalf("placement incomplete: %v", res.Placement.Hosts)
	}
	seen := map[graph.NodeID]bool{}
	for _, h := range res.Placement.Hosts {
		if seen[h] {
			t.Fatalf("host %d used twice under capacity 1", h)
		}
		seen[h] = true
	}
	if ok, bad := cons.Feasible(res.Placement); !ok {
		t.Fatalf("capacity violated at host %d", bad)
	}
}

func TestGreedyCapacitatedInfeasible(t *testing.T) {
	// Two services but the only candidate (r at α = 0) has capacity for one.
	inst := fig1Instance(t, 2, 0)
	cons := CapacityConstraints{
		Demand:   []float64{1, 1},
		Capacity: map[graph.NodeID]float64{0: 1},
	}
	res, err := GreedyCapacitated(inst, NewCoverage(), cons)
	if err == nil {
		t.Fatal("expected infeasibility error")
	}
	placedCount := 0
	for _, h := range res.Placement.Hosts {
		if h != Unplaced {
			placedCount++
		}
	}
	if placedCount != 1 {
		t.Fatalf("placed %d services, want 1 partial", placedCount)
	}
}

func TestGreedyCapacitatedValidation(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	if _, err := GreedyCapacitated(inst, nil, CapacityConstraints{Demand: []float64{1, 1}}); err == nil {
		t.Fatal("nil objective should error")
	}
	if _, err := GreedyCapacitated(inst, NewCoverage(), CapacityConstraints{Demand: []float64{1}}); err == nil {
		t.Fatal("demand length mismatch should error")
	}
	if _, err := GreedyCapacitated(inst, NewCoverage(), CapacityConstraints{Demand: []float64{-1, 1}}); err == nil {
		t.Fatal("negative demand should error")
	}
}

func TestGreedyCapacitatedUnlimitedMatchesGreedy(t *testing.T) {
	inst := fig1Instance(t, 3, 0.5)
	obj := mustObj(NewDistinguishability(1))
	plain, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	capped, err := GreedyCapacitated(inst, obj, CapacityConstraints{
		Demand:   []float64{1, 1, 1},
		Capacity: nil, // unlimited everywhere
	})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Value != capped.Value {
		t.Fatalf("unlimited capacity changed greedy value: %v != %v", capped.Value, plain.Value)
	}
}

func TestCapacityFeasible(t *testing.T) {
	cons := CapacityConstraints{
		Demand:   []float64{2, 2},
		Capacity: map[graph.NodeID]float64{1: 3},
	}
	pl := Placement{Hosts: []graph.NodeID{1, 1}}
	if ok, bad := cons.Feasible(pl); ok || bad != 1 {
		t.Fatalf("expected violation at host 1, got ok=%v bad=%d", ok, bad)
	}
	pl2 := Placement{Hosts: []graph.NodeID{1, 2}}
	if ok, _ := cons.Feasible(pl2); !ok {
		t.Fatal("split placement should be feasible")
	}
	pl3 := Placement{Hosts: []graph.NodeID{1, Unplaced}}
	if ok, _ := cons.Feasible(pl3); !ok {
		t.Fatal("partial placement within capacity should be feasible")
	}
}

func TestIndependenceSystemPartition(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	sys, err := inst.IndependenceSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	size, decode := inst.Elements()
	if sys.GroundSize() != size {
		t.Fatalf("ground size %d != %d", sys.GroundSize(), size)
	}
	if size != 10 { // 2 services × 5 candidates at α = 0.5
		t.Fatalf("ground size = %d, want 10", size)
	}
	s, h := decode(0)
	if s != 0 || h != inst.Candidates(0)[0] {
		t.Fatalf("decode(0) = (%d, %d)", s, h)
	}
	// Matroid exchange should hold for the partition system.
	if v := matroid.CheckExchange(sys, 300, 5); v != nil {
		t.Fatal(v)
	}
}

func TestIndependenceSystemCapacity(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	cons := &CapacityConstraints{
		Demand:   []float64{1, 1},
		Capacity: map[graph.NodeID]float64{0: 1},
	}
	sys, err := inst.IndependenceSystem(cons)
	if err != nil {
		t.Fatal(err)
	}
	if sys.GroundSize() == 0 {
		t.Fatal("empty ground set")
	}
	bad := &CapacityConstraints{
		Demand:   []float64{1, 1},
		Capacity: map[graph.NodeID]float64{99: 1},
	}
	if _, err := inst.IndependenceSystem(bad); err == nil {
		t.Fatal("out-of-range capacity host should error")
	}
}

func TestMatroidGreedyAgreesWithAlgorithm2(t *testing.T) {
	// Driving the generic matroid.Greedy with the instance's element
	// objective must reach the same value as the specialized Algorithm 2
	// (same function, same constraint, same tie-break by element order).
	inst := fig1Instance(t, 3, 0.5)
	obj := mustObj(NewDistinguishability(1))
	sys, err := inst.IndependenceSystem(nil)
	if err != nil {
		t.Fatal(err)
	}
	f := inst.ObjectiveOnElements(obj)
	sel := matroid.Greedy(sys, f, inst.NumServices())
	specialized, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := f.Value(sel), specialized.Value; got != want {
		t.Fatalf("matroid greedy %v != Algorithm 2 %v", got, want)
	}
}
