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
