package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// FuzzGreedyLazyEquivalence generates a seeded random connected topology
// plus a service population from the fuzz input and asserts the CELF
// engine is indistinguishable from plain greedy: equal objective value for
// every objective, and equal hosts/order wherever the lazy heap is
// actually in play (submodular objectives; identifiability falls back to
// the exact algorithm by construction).
func FuzzGreedyLazyEquivalence(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(7))
	f.Add(int64(137), uint8(1), uint8(0))
	f.Add(int64(-9), uint8(5), uint8(10))
	f.Add(int64(2016), uint8(4), uint8(5))
	f.Fuzz(func(t *testing.T, seed int64, svcCount, alphaStep uint8) {
		n := 8 + int(uint64(seed)%9) // 8..16 nodes
		maxEdges := n * (n - 1) / 2
		m := (n - 1) + int(uint64(seed)>>7%uint64(maxEdges-(n-1)+1))
		g, err := topology.RandomConnected(n, m, seed)
		if err != nil {
			t.Skip() // degenerate parameters, not a property violation
		}
		r, err := routing.New(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		numServices := 1 + int(svcCount%5)
		services := make([]Service, numServices)
		for s := range services {
			clients := make([]graph.NodeID, 1+rng.Intn(3))
			for i := range clients {
				clients[i] = rng.Intn(n)
			}
			services[s] = Service{Name: "fz", Clients: clients}
		}
		alpha := float64(alphaStep%11) / 10
		inst, err := NewInstance(r, services, alpha)
		if err != nil {
			t.Skip() // e.g. empty candidate set at small alpha
		}
		for _, obj := range []Objective{
			NewCoverage(),
			mustObj(NewIdentifiability(1)),
			mustObj(NewDistinguishability(1)),
		} {
			exact, err := runWith(inst, obj, Options{Engine: Eager})
			if err != nil {
				t.Fatal(err)
			}
			lazy, err := runWith(inst, obj, Options{})
			if err != nil {
				t.Fatal(err)
			}
			if lazy.Value != exact.Value {
				t.Fatalf("%s: lazy value %v != greedy %v (seed=%d services=%d alpha=%g)",
					obj.Name(), lazy.Value, exact.Value, seed, numServices, alpha)
			}
			if !reflect.DeepEqual(lazy.Placement.Hosts, exact.Placement.Hosts) ||
				!reflect.DeepEqual(lazy.Order, exact.Order) {
				t.Fatalf("%s: lazy placement diverges from greedy (seed=%d services=%d alpha=%g): %v vs %v",
					obj.Name(), seed, numServices, alpha, lazy.Placement.Hosts, exact.Placement.Hosts)
			}
			if IsSubmodular(obj) && lazy.Evaluations > exact.Evaluations {
				t.Fatalf("%s: lazy used more evaluations (%d) than greedy (%d)",
					obj.Name(), lazy.Evaluations, exact.Evaluations)
			}
		}
	})
}

// FuzzEvaluatorTry builds a random instance and, for every objective
// with its own evaluator — coverage, identifiability and
// distinguishability at k = 1 and 2, and the three interest variants —
// grows a placement one random element at a time. Before each step it
// tries every ground element: Try must return exactly what Clone, Add
// and Value return, and leave Value where it was. The tried evaluator
// must then keep agreeing with one that never tried anything, so a
// rollback that leaves hidden state behind shows up in a later value.
func FuzzEvaluatorTry(f *testing.F) {
	f.Add(int64(3), uint8(3), uint8(5))
	f.Add(int64(13), uint8(1), uint8(10))
	f.Add(int64(1000), uint8(2), uint8(7))
	f.Add(int64(4101), uint8(3), uint8(10))
	f.Add(int64(50), uint8(2), uint8(7)) // a try that covers every uncovered node
	f.Fuzz(func(t *testing.T, seed int64, svcCount, alphaStep uint8) {
		n := 6 + int(uint64(seed)%7) // 6..12 nodes
		maxEdges := n * (n - 1) / 2
		m := (n - 1) + int(uint64(seed)>>7%uint64(maxEdges-(n-1)+1))
		g, err := topology.RandomConnected(n, m, seed)
		if err != nil {
			t.Skip()
		}
		r, err := routing.New(g)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(seed))
		services := make([]Service, 1+int(svcCount%4))
		for s := range services {
			clients := make([]graph.NodeID, 1+rng.Intn(3))
			for i := range clients {
				clients[i] = rng.Intn(n)
			}
			services[s] = Service{Name: "fz", Clients: clients}
		}
		inst, err := NewInstance(r, services, float64(alphaStep%11)/10)
		if err != nil {
			t.Skip()
		}
		var interest []int
		for v := 0; v < n; v++ {
			if rng.Intn(2) == 0 {
				interest = append(interest, v)
			}
		}
		for _, obj := range []Objective{
			NewCoverage(),
			NewCoverageOfInterest(n, interest),
			mustObj(NewIdentifiability(1)),
			mustObj(NewDistinguishability(1)),
			NewIdentifiabilityOfInterest(n, interest),
			NewDistinguishabilityOfInterest(n, interest),
			mustObj(NewIdentifiability(2)),
			mustObj(NewDistinguishability(2)),
		} {
			tried, fresh := obj.newEvaluator(n), obj.newEvaluator(n)
			for step := 0; step <= len(services); step++ {
				before := tried.Value()
				if want := fresh.Value(); before != want {
					t.Fatalf("%s step %d: tried evaluator reads %v, untouched one %v", obj.Name(), step, before, want)
				}
				for e := range inst.elements {
					paths := inst.elements[e].evalPaths
					clone := tried.Clone()
					clone.Add(paths)
					if got, want := tried.Try(paths), clone.Value(); got != want {
						t.Fatalf("%s step %d elem %d: Try = %v, Clone+Add+Value = %v", obj.Name(), step, e, got, want)
					}
					if got := tried.Value(); got != before {
						t.Fatalf("%s step %d elem %d: Value moved from %v to %v", obj.Name(), step, e, before, got)
					}
				}
				if len(inst.elements) == 0 {
					break
				}
				paths := inst.elements[rng.Intn(len(inst.elements))].evalPaths
				tried.Add(paths)
				fresh.Add(paths)
			}
		}
	})
}
