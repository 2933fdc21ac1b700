package placemon

import (
	"encoding/json"
	"testing"

	"repro/internal/graph"
)

// observeScenario returns the document of a scenario shaped like
// placebench's observe tenants, a ~2 000-node hierarchy (2 088 nodes)
// with 8 services × 32 clients at α 0.3, and the number of distinct hosts
// in its services' candidate sets.
func observeScenario(tb testing.TB) ([]byte, int) {
	tb.Helper()
	spec, _ := hierarchySpec(tb, 2000, 8, 32, 0)
	raw, err := json.Marshal(spec)
	if err != nil {
		tb.Fatal(err)
	}
	nw, err := spec.Network()
	if err != nil {
		tb.Fatal(err)
	}
	hosts := map[int]bool{}
	for _, svc := range spec.Placement.ToServices() {
		cands, err := nw.CandidateHosts(svc.Clients, spec.Placement.Alpha)
		if err != nil {
			tb.Fatal(err)
		}
		for _, h := range cands {
			hosts[h] = true
		}
	}
	return raw, len(hosts)
}

// TestScenarioBuildSearchesHostsOnly requires creating an observe-shaped
// scenario to build exactly one shortest-path tree per distinct candidate
// host: the QoS profile of its 256 clients takes no tree of its own.
func TestScenarioBuildSearchesHostsOnly(t *testing.T) {
	raw, hosts := observeScenario(t)
	searches := graph.Searches()
	if _, err := buildScenario("observe", raw); err != nil {
		t.Fatal(err)
	}
	if built := graph.Searches() - searches; built != int64(hosts) {
		t.Fatalf("building the scenario ran %d searches, want one per distinct candidate host (%d)", built, hosts)
	}
}

// BenchmarkScenarioBuild times one build of an observe-shaped scenario
// (see observeScenario) by the facade's server.BuildFunc, the work a
// scenario's creation, a WAL boot replay of it and a migration adopting
// it each pay: parse the document, route the network, profile the
// services and read the placed paths. trees-built/op counts the
// shortest-path trees a build searches for; it is deterministic.
func BenchmarkScenarioBuild(b *testing.B) {
	raw, _ := observeScenario(b)
	b.ReportAllocs()
	b.ResetTimer()
	searches := graph.Searches()
	for i := 0; i < b.N; i++ {
		if _, err := buildScenario("observe", raw); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(graph.Searches()-searches)/float64(b.N), "trees-built/op")
}

// TestCandidateHostsSearchesNoTree requires Network.CandidateHosts to
// read the candidate list off the QoS profile: on the hop-count
// replan-shaped network (4 904 nodes) at α 1, where every node is a
// candidate, a call searches no shortest-path tree.
func TestCandidateHostsSearchesNoTree(t *testing.T) {
	spec, _ := hierarchySpec(t, 5000, 8, 10, 0)
	nw, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	searches := graph.Searches()
	hosts, err := nw.CandidateHosts(spec.Placement.ToServices()[0].Clients, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != spec.Nodes {
		t.Fatalf("%d candidate hosts at α 1, want all %d nodes", len(hosts), spec.Nodes)
	}
	if n := graph.Searches() - searches; n != 0 {
		t.Fatalf("CandidateHosts searched %d trees, want none", n)
	}
}
