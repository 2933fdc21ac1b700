package placement

import (
	"testing"

	"repro/internal/routing"
	"repro/internal/topology"
)

// The placement stack is distance-agnostic: weighted-latency networks
// flow through routing → QoS candidates → greedy unchanged. This test
// pins that end-to-end path.
func TestPlacementOnWeightedTopology(t *testing.T) {
	topo, err := topology.BuildWeighted(topology.Abovenet, 1, 10, 17)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	services := []Service{
		{Name: "a", Clients: topo.CandidateClients[:3]},
		{Name: "b", Clients: topo.CandidateClients[3:6]},
	}
	inst, err := NewInstance(r, services, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	obj := mustObj(NewDistinguishability(1))
	res, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Placement.Complete() {
		t.Fatal("weighted placement incomplete")
	}
	if inst.WorstRelativeDistance(res.Placement) > 0.5+1e-9 {
		t.Fatalf("QoS constraint violated on weighted graph: %v",
			inst.WorstRelativeDistance(res.Placement))
	}
	// Candidate sets must reflect weighted distances: a zero-slack
	// instance is at least as constrained as a relaxed one.
	strict, err := NewInstance(r, services, 0)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 2; s++ {
		if len(strict.Candidates(s)) > len(inst.Candidates(s)) {
			t.Fatal("strict candidate set larger than relaxed one")
		}
	}
	// Weighted and unweighted builds of the same spec generally route
	// differently; make sure at least the distances differ.
	unweighted := topology.MustBuild(topology.Abovenet)
	ru, err := routing.New(unweighted.Graph)
	if err != nil {
		t.Fatal(err)
	}
	differs := false
	for v := 1; v < topo.Graph.NumNodes(); v++ {
		if r.Distance(0, v) != ru.Distance(0, v) {
			differs = true
			break
		}
	}
	if !differs {
		t.Fatal("weighted distances should differ from hop counts")
	}
}
