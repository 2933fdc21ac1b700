package placement_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/topology"
)

var resultSink *placement.Result

// BenchmarkPartitionPlacement times one lazy distinguishability placement
// over a generated hierarchy the size of the replan benchmark's large
// tenant (~5 000 nodes): 8 services of 10 clients each, drawn from the
// host tier with a fixed seed, at α = 0.3. The instance (routing,
// candidate sets, paths) is built before the timer, so ns/op and
// allocs/op are the objective evaluations': partition clone, refinement
// and value, and the CELF bookkeeping around them.
func BenchmarkPartitionPlacement(b *testing.B) {
	inst := hierarchyInstance(b)
	obj, err := placement.NewDistinguishability(1)
	if err != nil {
		b.Fatal(err)
	}
	evals := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := placement.Run(context.Background(), inst, obj, placement.Options{})
		if err != nil {
			b.Fatal(err)
		}
		evals += res.Evaluations
		resultSink = res
	}
	b.ReportMetric(float64(evals)/float64(b.N), "evaluations/op")
}

// BenchmarkClassCountK2 times |D_2| and |S_2| of the placement
// BenchmarkPartitionPlacement computes: 80 paths over the 4 904-node
// hierarchy, counted over their failure classes. Each row reports the
// value it computed, so a run on another tree checks the answer too.
func BenchmarkClassCountK2(b *testing.B) {
	inst := hierarchyInstance(b)
	obj, err := placement.NewDistinguishability(1)
	if err != nil {
		b.Fatal(err)
	}
	res, err := placement.Run(context.Background(), inst, obj, placement.Options{})
	if err != nil {
		b.Fatal(err)
	}
	ps, err := inst.PathSet(res.Placement)
	if err != nil {
		b.Fatal(err)
	}
	for _, row := range []struct {
		name  string
		value func() float64
	}{
		{"D2", func() float64 { return float64(monitor.DistinguishabilityK(ps, 2)) }},
		{"S2", func() float64 { return float64(monitor.IdentifiabilityK(ps, 2)) }},
	} {
		b.Run(row.name, func(b *testing.B) {
			var v float64
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				v = row.value()
			}
			b.ReportMetric(v, "value")
		})
	}
}

// hierarchyInstance is the replan benchmark's large tenant: a generated
// hierarchy of ~5 000 nodes (4 904), 8 services of 10 clients each drawn
// from the host tier with a fixed seed, at α = 0.3.
func hierarchyInstance(b *testing.B) *placement.Instance {
	b.Helper()
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", 5000, 1))
	if err != nil {
		b.Fatal(err)
	}
	r, err := routing.NewLazy(topo.Graph)
	if err != nil {
		b.Fatal(err)
	}
	const numServices, clientsPer = 8, 10
	perm := rand.New(rand.NewSource(1)).Perm(len(topo.CandidateClients))
	services := make([]placement.Service, numServices)
	for s := range services {
		clients := make([]graph.NodeID, clientsPer)
		for i := range clients {
			clients[i] = topo.CandidateClients[perm[s*clientsPer+i]]
		}
		services[s] = placement.Service{Name: fmt.Sprintf("svc-%d", s), Clients: clients}
	}
	inst, err := placement.NewInstance(r, services, 0.3)
	if err != nil {
		b.Fatal(err)
	}
	return inst
}
