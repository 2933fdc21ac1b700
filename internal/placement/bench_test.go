package placement_test

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/graph"
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
