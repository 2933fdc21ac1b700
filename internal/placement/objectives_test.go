package placement

import (
	"testing"
)

func TestObjectiveNames(t *testing.T) {
	cases := []struct {
		obj  Objective
		name string
		k    int
	}{
		{NewCoverage(), "coverage", 0},
		{NewCoverageOfInterest(9, []int{1, 2}), "coverage-interest", 0},
		{mustObj(NewIdentifiability(1)), "identifiability-1", 1},
		{mustObj(NewIdentifiability(2)), "identifiability-2", 2},
		{mustObj(NewDistinguishability(1)), "distinguishability-1", 1},
		{mustObj(NewDistinguishability(3)), "distinguishability-3", 3},
		{NewIdentifiabilityOfInterest(9, []int{1}), "identifiability-1-interest", 1},
		{NewDistinguishabilityOfInterest(9, []int{1}), "distinguishability-1-interest", 1},
	}
	for _, c := range cases {
		if c.obj.Name() != c.name {
			t.Errorf("Name = %q, want %q", c.obj.Name(), c.name)
		}
		if c.obj.K() != c.k {
			t.Errorf("%s: K = %d, want %d", c.name, c.obj.K(), c.k)
		}
	}
}

func TestObjectiveValidation(t *testing.T) {
	if _, err := NewIdentifiability(0); err == nil {
		t.Fatal("k=0 identifiability should error")
	}
	if _, err := NewDistinguishability(0); err == nil {
		t.Fatal("k=0 distinguishability should error")
	}
}

func TestInterestObjectivesReduceToFull(t *testing.T) {
	// With N_I = all nodes the interest variants must equal the plain
	// objectives on every placement.
	inst := fig1Instance(t, 2, 0.5)
	n := inst.NumNodes()
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}

	pl := NewPlacement(2)
	pl.Hosts[0], pl.Hosts[1] = 0, 1

	pairsOfObjectives := []struct {
		full, interest Objective
	}{
		{NewCoverage(), NewCoverageOfInterest(n, all)},
		{mustObj(NewIdentifiability(1)), NewIdentifiabilityOfInterest(n, all)},
		{mustObj(NewDistinguishability(1)), NewDistinguishabilityOfInterest(n, all)},
	}
	for _, pair := range pairsOfObjectives {
		vFull, err := EvaluateWith(inst, pair.full, pl)
		if err != nil {
			t.Fatal(err)
		}
		vInt, err := EvaluateWith(inst, pair.interest, pl)
		if err != nil {
			t.Fatal(err)
		}
		if vFull != vInt {
			t.Errorf("%s: full %v != interest-on-all %v", pair.full.Name(), vFull, vInt)
		}
	}
}

func TestCoverageOfInterestCountsOnlyInterest(t *testing.T) {
	inst := fig1Instance(t, 1, 0.5)
	pl := NewPlacement(1)
	pl.Hosts[0] = 0 // r: covers all 9 nodes
	obj := NewCoverageOfInterest(inst.NumNodes(), []int{0, 1})
	v, err := EvaluateWith(inst, obj, pl)
	if err != nil {
		t.Fatal(err)
	}
	if v != 2 {
		t.Fatalf("interest coverage = %v, want 2", v)
	}
}

func TestInterestD1EmptyInterest(t *testing.T) {
	inst := fig1Instance(t, 1, 0.5)
	pl := NewPlacement(1)
	pl.Hosts[0] = 0
	obj := NewDistinguishabilityOfInterest(inst.NumNodes(), nil)
	v, err := EvaluateWith(inst, obj, pl)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("empty-interest D1 = %v, want 0", v)
	}
}

func TestInterestIdentifiabilityManual(t *testing.T) {
	// QoS placement on Fig. 1 identifies only r (node 0). Interest {0}
	// should give 1; interest {1} should give 0.
	inst := fig1Instance(t, 1, 0.5)
	pl := NewPlacement(1)
	pl.Hosts[0] = 0
	v, err := EvaluateWith(inst, NewIdentifiabilityOfInterest(inst.NumNodes(), []int{0}), pl)
	if err != nil {
		t.Fatal(err)
	}
	if v != 1 {
		t.Fatalf("interest {r}: %v, want 1", v)
	}
	v, err = EvaluateWith(inst, NewIdentifiabilityOfInterest(inst.NumNodes(), []int{1}), pl)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0 {
		t.Fatalf("interest {a}: %v, want 0", v)
	}
}

func TestGeneralKObjectivesOnSmallInstance(t *testing.T) {
	// k = 2 objectives work end-to-end on a small line instance and are
	// consistent with k = 1 ordering: D_2 ≥ D_1 (more pairs exist) and the
	// greedy still completes.
	inst := lineInstance(t, 6, [][]int{{0, 5}}, 1)
	d2 := mustObj(NewDistinguishability(2))
	res2, err := runWith(inst, d2, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Placement.Complete() {
		t.Fatal("k=2 greedy incomplete")
	}
	i2 := mustObj(NewIdentifiability(2))
	resI, err := runWith(inst, i2, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !resI.Placement.Complete() {
		t.Fatal("k=2 identifiability greedy incomplete")
	}
	// S_2 ≤ S_1 for the same placement.
	v2, err := EvaluateWith(inst, i2, resI.Placement)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := EvaluateWith(inst, mustObj(NewIdentifiability(1)), resI.Placement)
	if err != nil {
		t.Fatal(err)
	}
	if v2 > v1 {
		t.Fatalf("S_2 = %v > S_1 = %v", v2, v1)
	}
}
