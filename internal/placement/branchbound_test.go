package placement

import (
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func TestBranchAndBoundValidation(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	if _, err := BranchAndBound(inst, nil, 0); err == nil {
		t.Fatal("nil objective should error")
	}
	ident := mustObj(NewIdentifiability(1))
	if _, err := BranchAndBound(inst, ident, 0); err == nil {
		t.Fatal("non-submodular objective should be rejected")
	}
	if _, err := BranchAndBound(inst, NewCoverage(), 1); err == nil {
		t.Fatal("tiny node budget should error")
	}
}

func TestBranchAndBoundMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(131))
	objectives := []Objective{
		NewCoverage(),
		mustObj(NewDistinguishability(1)),
	}
	for trial := 0; trial < 8; trial++ {
		g, err := topology.RandomConnected(9, 14, rng.Int63())
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
		for _, obj := range objectives {
			bf, err := BruteForce(inst, obj, 0)
			if err != nil {
				t.Fatal(err)
			}
			bb, err := BranchAndBound(inst, obj, 0)
			if err != nil {
				t.Fatal(err)
			}
			if bb.Value != bf.Value {
				t.Fatalf("trial %d %s: B&B %v != BF %v", trial, obj.Name(), bb.Value, bf.Value)
			}
			// The returned placement must actually achieve the value.
			v, err := EvaluateWith(inst, obj, bb.Placement)
			if err != nil {
				t.Fatal(err)
			}
			if v != bb.Value {
				t.Fatalf("trial %d %s: reported %v but placement evaluates to %v",
					trial, obj.Name(), bb.Value, v)
			}
		}
	}
}

func TestBranchAndBoundPrunes(t *testing.T) {
	// On the Fig. 1 instance with 3 services × 5 candidates, plain BF
	// explores 125 leaves; B&B should evaluate strictly fewer leaf-
	// equivalent nodes thanks to the greedy incumbent plus bound.
	inst := fig1Instance(t, 3, 0.5)
	obj := mustObj(NewDistinguishability(1))
	bf, err := BruteForce(inst, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := BranchAndBound(inst, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Value != bf.Value {
		t.Fatalf("B&B %v != BF %v", bb.Value, bf.Value)
	}
	// Not a strict guarantee in general, but on this instance the bound
	// prunes most of the tree; keep it as a regression canary.
	if bb.Evaluations >= bf.Evaluations*5 {
		t.Fatalf("B&B evaluations %d suspiciously high vs BF %d", bb.Evaluations, bf.Evaluations)
	}
}

func TestBranchAndBoundNeverBelowGreedy(t *testing.T) {
	inst := fig1Instance(t, 3, 1)
	obj := NewCoverage()
	gr, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	bb, err := BranchAndBound(inst, obj, 0)
	if err != nil {
		t.Fatal(err)
	}
	if bb.Value < gr.Value {
		t.Fatalf("B&B %v below its greedy seed %v", bb.Value, gr.Value)
	}
	if !bb.Placement.Complete() {
		t.Fatal("B&B placement incomplete")
	}
}
