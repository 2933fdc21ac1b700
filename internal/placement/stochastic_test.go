package placement

import (
	"context"
	"math"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// paperInstances builds a placement instance per paper topology, with
// services drawn from the candidate client pools exactly like the
// evaluation harness does.
func paperInstances(t *testing.T, alpha float64) map[string]*Instance {
	t.Helper()
	out := map[string]*Instance{}
	for _, spec := range topology.Specs() {
		topo, err := topology.Build(spec)
		if err != nil {
			t.Fatal(err)
		}
		r, err := routing.New(topo.Graph)
		if err != nil {
			t.Fatal(err)
		}
		cc := topo.CandidateClients
		svcs := []Service{
			{Name: "a", Clients: cc[:len(cc)/2]},
			{Name: "b", Clients: cc[len(cc)/2:]},
			{Name: "c", Clients: []graph.NodeID{cc[0], cc[len(cc)-1]}},
		}
		inst, err := NewInstance(r, svcs, alpha)
		if err != nil {
			t.Fatal(err)
		}
		out[spec.Name] = inst
	}
	return out
}

// TestGreedyStochasticFullSampleMatchesLazy pins the degenerate case:
// when eps is small enough that the sample covers every remaining
// candidate, the stochastic engine must reproduce the lazy engine bit for
// bit — same hosts, same order, same value, same evaluation count.
func TestGreedyStochasticFullSampleMatchesLazy(t *testing.T) {
	for name, inst := range paperInstances(t, 0.6) {
		for _, obj := range []Objective{NewCoverage(), mustDist1(t)} {
			lazy, err := runWith(inst, obj, Options{})
			if err != nil {
				t.Fatal(err)
			}
			// eps = 1e-9 → sample size (n/k)·ln(1e9) ≫ n: full coverage.
			st, err := runWith(inst, obj, Options{Engine: Stochastic, Eps: 1e-9, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(st.Placement.Hosts, lazy.Placement.Hosts) ||
				!reflect.DeepEqual(st.Order, lazy.Order) || st.Value != lazy.Value {
				t.Fatalf("%s/%s: full-sample stochastic %v (%v) != lazy %v (%v)",
					name, obj.Name(), st.Placement.Hosts, st.Value, lazy.Placement.Hosts, lazy.Value)
			}
			if st.Evaluations != lazy.Evaluations {
				t.Fatalf("%s/%s: full-sample evaluations %d != lazy %d",
					name, obj.Name(), st.Evaluations, lazy.Evaluations)
			}
		}
	}
}

func mustDist1(t *testing.T) Objective {
	t.Helper()
	obj, err := NewDistinguishability(1)
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestGreedyStochasticValueBound checks an empirical floor against
// exact greedy on the three paper topologies, not a theorem: averaged
// over seeds, the sampled value must be at least (1 − 1/e − ε) of exact
// greedy's, and no single seed may fall below half of it. The factor is
// borrowed from Mirzasoleiman et al.'s cardinality-constrained result,
// which does not cover this partition-matroid ground set.
func TestGreedyStochasticValueBound(t *testing.T) {
	const eps = 0.1
	bound := 1 - 1/math.E - eps
	for name, inst := range paperInstances(t, 0.6) {
		obj := NewCoverage()
		exact, err := runWith(inst, obj, Options{Engine: Eager})
		if err != nil {
			t.Fatal(err)
		}
		sum, worst := 0.0, math.Inf(1)
		const seeds = 20
		for seed := int64(0); seed < seeds; seed++ {
			st, err := runWith(inst, obj, Options{Engine: Stochastic, Eps: eps, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			ratio := st.Value / exact.Value
			sum += ratio
			if ratio < worst {
				worst = ratio
			}
			// The sampling savings are measured against the exact greedy's
			// full per-round sweeps (n·k evaluations), not against CELF.
			if st.Evaluations > exact.Evaluations {
				t.Fatalf("%s seed %d: stochastic used more evaluations (%d) than exact greedy (%d)",
					name, seed, st.Evaluations, exact.Evaluations)
			}
		}
		if mean := sum / seeds; mean < bound {
			t.Fatalf("%s: mean value ratio %.3f below guarantee %.3f", name, mean, bound)
		}
		if worst < 0.5 {
			t.Fatalf("%s: worst value ratio %.3f below 0.5", name, worst)
		}
	}
}

// TestGreedyStochasticDeterministic pins seed-reproducibility: the same
// (instance, eps, seed) must give the same placement and evaluation
// count every run.
func TestGreedyStochasticDeterministic(t *testing.T) {
	inst := paperInstances(t, 0.6)["Tiscali"]
	obj := NewCoverage()
	a, err := runWith(inst, obj, Options{Engine: Stochastic, Eps: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runWith(inst, obj, Options{Engine: Stochastic, Eps: 0.2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Placement.Hosts, b.Placement.Hosts) || a.Evaluations != b.Evaluations {
		t.Fatal("same seed produced different runs")
	}
	c, err := runWith(inst, obj, Options{Engine: Stochastic, Eps: 0.2, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	// A different seed is allowed to agree on the placement (small
	// instance) but the run must still be valid and complete.
	if !c.Placement.Complete() {
		t.Fatal("seed 43 left services unplaced")
	}
}

// TestGreedyStochasticValidation covers the error surface: bad eps, nil
// objective, and the non-submodular fallback to the eager engine.
func TestGreedyStochasticValidation(t *testing.T) {
	inst := paperInstances(t, 0.6)["Abovenet"]
	if _, err := runWith(inst, nil, Options{Engine: Stochastic, Eps: 0.1, Seed: 1}); err == nil {
		t.Fatal("nil objective should error")
	}
	for _, eps := range []float64{0, 1, -0.5, 2, math.NaN()} {
		if _, err := runWith(inst, NewCoverage(), Options{Engine: Stochastic, Eps: eps, Seed: 1}); err == nil {
			t.Fatalf("eps=%v should error", eps)
		}
	}
	ident, err := NewIdentifiability(1)
	if err != nil {
		t.Fatal(err)
	}
	st, err := runWith(inst, ident, Options{Engine: Stochastic, Eps: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	exact, err := runWith(inst, ident, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(st.Placement.Hosts, exact.Placement.Hosts) {
		t.Fatal("non-submodular objective should route to the eager engine")
	}
}

// TestGreedyStochasticCancel verifies the context is observed between
// rounds.
func TestGreedyStochasticCancel(t *testing.T) {
	inst := paperInstances(t, 0.6)["AT&T"]
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, inst, NewCoverage(), Options{Engine: Stochastic, Eps: 0.1, Seed: 1}); err == nil {
		t.Fatal("canceled context should error")
	}
}

// TestStochasticSampleSize pins the ⌈(n/k)·ln(1/ε)⌉ formula and its
// floor.
func TestStochasticSampleSize(t *testing.T) {
	if got := StochasticSampleSize(1000, 10, 0.1); got != int(math.Ceil(100*math.Log(10))) {
		t.Fatalf("sample size = %d", got)
	}
	if got := StochasticSampleSize(5, 10, 0.9); got < 1 {
		t.Fatalf("sample size fell below 1: %d", got)
	}
	if got := StochasticSampleSize(0, 0, 0.1); got != 1 {
		t.Fatalf("degenerate inputs should clamp to 1, got %d", got)
	}
}
