package placement

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/matroid"
	"repro/internal/routing"
	"repro/internal/topology"
)

// mustObj unwraps an (Objective, error) constructor result, panicking on
// error; constructors only fail on invalid k, which tests pass correctly.
// runWith is Run under a background context.
func runWith(inst *Instance, obj Objective, opts Options) (*Result, error) {
	return Run(context.Background(), inst, obj, opts)
}

func mustObj(obj Objective, err error) Objective {
	if err != nil {
		panic(err)
	}
	return obj
}

func TestGreedyNilObjective(t *testing.T) {
	inst := fig1Instance(t, 1, 0.5)
	if _, err := runWith(inst, nil, Options{Engine: Eager}); err == nil {
		t.Fatal("nil objective should error")
	}
}

func TestGreedyPlacesAllServices(t *testing.T) {
	inst := fig1Instance(t, 5, 0.5)
	res, err := runWith(inst, mustObj(NewDistinguishability(1)), Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Complete() {
		t.Fatalf("placement incomplete: %v", res.Placement.Hosts)
	}
	if len(res.Order) != 5 {
		t.Fatalf("Order = %v", res.Order)
	}
	if res.Evaluations == 0 {
		t.Fatal("no evaluations counted")
	}
}

func TestGreedyDistinguishabilityFig1(t *testing.T) {
	// With 5 services and hosts {r,a,b,c,d} available, GD must reach full
	// identifiability: spreading services across a..d yields unique
	// signatures for all 9 nodes (the paper's Fig. 1 discussion).
	inst := fig1Instance(t, 5, 0.5)
	res, err := runWith(inst, mustObj(NewDistinguishability(1)), Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	m, err := inst.Evaluate(res.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if m.S1 != 9 {
		t.Fatalf("GD S1 = %d, want 9 (placement %v)", m.S1, res.Placement.Hosts)
	}
	if m.D1 != 45 { // C(10, 2): all hypothesis pairs distinguishable
		t.Fatalf("GD D1 = %d, want 45", m.D1)
	}

	// QoS stacks everything on r and identifies only r.
	qosRes, err := QoS(inst, mustObj(NewDistinguishability(1)))
	if err != nil {
		t.Fatal(err)
	}
	qm, err := inst.Evaluate(qosRes.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if qm.S1 != 1 {
		t.Fatalf("QoS S1 = %d, want 1", qm.S1)
	}
	if qm.D1 >= m.D1 {
		t.Fatalf("QoS D1 %d should trail GD D1 %d", qm.D1, m.D1)
	}
}

func TestGreedyDeterministic(t *testing.T) {
	inst := fig1Instance(t, 3, 0.5)
	obj := mustObj(NewDistinguishability(1))
	a, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Placement.Hosts, b.Placement.Hosts) || a.Value != b.Value {
		t.Fatal("greedy must be deterministic")
	}
}

func TestQoSPicksBestHosts(t *testing.T) {
	inst := fig1Instance(t, 2, 1)
	res, err := QoS(inst, NewCoverage())
	if err != nil {
		t.Fatal(err)
	}
	for s, h := range res.Placement.Hosts {
		if want := inst.Profile(s).BestHost(); h != want {
			t.Fatalf("service %d on %d, want %d", s, h, want)
		}
	}
}

func TestRandomStaysInCandidates(t *testing.T) {
	inst := fig1Instance(t, 3, 0.5)
	rng := rand.New(rand.NewSource(9))
	res, err := Random(inst, NewCoverage(), rng)
	if err != nil {
		t.Fatal(err)
	}
	for s, h := range res.Placement.Hosts {
		ok := false
		for _, c := range inst.Candidates(s) {
			if c == h {
				ok = true
			}
		}
		if !ok {
			t.Fatalf("service %d placed on non-candidate %d", s, h)
		}
	}
	if _, err := Random(inst, NewCoverage(), nil); err == nil {
		t.Fatal("nil rng should error")
	}
	if _, err := Random(inst, nil, rng); err == nil {
		t.Fatal("nil objective should error")
	}
}

func TestRandomSeededReproducible(t *testing.T) {
	inst := fig1Instance(t, 3, 0.5)
	a, err := Random(inst, NewCoverage(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Random(inst, NewCoverage(), rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Placement.Hosts, b.Placement.Hosts) {
		t.Fatal("same seed should reproduce the placement")
	}
}

func TestBruteForceBudget(t *testing.T) {
	inst := fig1Instance(t, 3, 1) // 9^3 = 729 placements
	if _, err := BruteForce(inst, NewCoverage(), 10); err == nil {
		t.Fatal("budget overflow should error")
	}
	res, err := BruteForce(inst, NewCoverage(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evaluations != 729 {
		t.Fatalf("Evaluations = %d, want 729", res.Evaluations)
	}
	if _, err := BruteForce(inst, nil, 0); err == nil {
		t.Fatal("nil objective should error")
	}
}

func TestBruteForceDominatesGreedy(t *testing.T) {
	objectives := []Objective{
		NewCoverage(),
		mustObj(NewIdentifiability(1)),
		mustObj(NewDistinguishability(1)),
	}
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 10; trial++ {
		g, err := topology.RandomConnected(8, 12, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.New(g)
		if err != nil {
			t.Fatal(err)
		}
		services := []Service{
			{Name: "a", Clients: []graph.NodeID{0, 1}},
			{Name: "b", Clients: []graph.NodeID{2, 3}},
		}
		inst, err := NewInstance(r, services, 0.6)
		if err != nil {
			t.Fatal(err)
		}
		for _, obj := range objectives {
			bf, err := BruteForce(inst, obj, 0)
			if err != nil {
				t.Fatal(err)
			}
			gr, err := runWith(inst, obj, Options{Engine: Eager})
			if err != nil {
				t.Fatal(err)
			}
			if gr.Value > bf.Value {
				t.Fatalf("trial %d %s: greedy %v beats brute force %v", trial, obj.Name(), gr.Value, bf.Value)
			}
			// Theorem 11 guarantee for the submodular objectives.
			if obj.Name() != "identifiability-1" && gr.Value < bf.Value/2 {
				t.Fatalf("trial %d %s: greedy %v below half of optimum %v", trial, obj.Name(), gr.Value, bf.Value)
			}
		}
	}
}

func TestEvaluateWith(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	pl := NewPlacement(2)
	pl.Hosts[0], pl.Hosts[1] = 1, 2
	v, err := EvaluateWith(inst, NewCoverage(), pl)
	if err != nil {
		t.Fatal(err)
	}
	if v <= 0 {
		t.Fatalf("coverage = %v", v)
	}
	if _, err := EvaluateWith(inst, nil, pl); err == nil {
		t.Fatal("nil objective should error")
	}
	if _, err := EvaluateWith(inst, NewCoverage(), NewPlacement(1)); err == nil {
		t.Fatal("wrong-length placement should error")
	}
}

// Theorem 19: with σ* non-identifiable nodes under the max-|S_1|
// placement and σ0 under the max-|D_1| placement, σ0 ≤ min((σ*+1)σ*, N).
func TestTheorem19Bound(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 8; trial++ {
		g, err := topology.RandomConnected(7, 10, rng.Int63())
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.New(g)
		if err != nil {
			t.Fatal(err)
		}
		services := []Service{
			{Name: "a", Clients: []graph.NodeID{0, 1}},
			{Name: "b", Clients: []graph.NodeID{2, 3}},
		}
		inst, err := NewInstance(r, services, 1)
		if err != nil {
			t.Fatal(err)
		}
		n := inst.NumNodes()

		maxD, err := BruteForce(inst, mustObj(NewDistinguishability(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		maxS, err := BruteForce(inst, mustObj(NewIdentifiability(1)), 0)
		if err != nil {
			t.Fatal(err)
		}
		mD, err := inst.Evaluate(maxD.Placement)
		if err != nil {
			t.Fatal(err)
		}
		sigma0 := n - mD.S1
		sigmaStar := n - int(maxS.Value)
		bound := (sigmaStar + 1) * sigmaStar
		if bound > n {
			bound = n
		}
		if sigma0 > bound {
			t.Fatalf("trial %d: σ0 = %d exceeds Theorem 19 bound %d (σ* = %d)",
				trial, sigma0, bound, sigmaStar)
		}
	}
}

// Lemma 13 / Lemma 17: the element-level objectives are monotone
// submodular; Proposition 15: identifiability is monotone but generally
// not submodular (the violation needs particular instances, so here we
// only require monotonicity).
func TestObjectivePropertiesOnElements(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	size, _ := inst.Elements()
	for _, tc := range []struct {
		obj        Objective
		submodular bool
	}{
		{NewCoverage(), true},
		{mustObj(NewDistinguishability(1)), true},
		{mustObj(NewIdentifiability(1)), false},
	} {
		f := inst.ObjectiveOnElements(tc.obj)
		if v := matroid.CheckMonotone(f, size, 150, 3); v != nil {
			t.Fatalf("%s: %v", tc.obj.Name(), v)
		}
		if tc.submodular {
			if v := matroid.CheckSubmodular(f, size, 150, 3); v != nil {
				t.Fatalf("%s: %v", tc.obj.Name(), v)
			}
		}
	}
}
