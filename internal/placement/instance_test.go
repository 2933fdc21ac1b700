package placement

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// fig1Instance builds the paper's Fig. 1 example: numServices services,
// all with clients {e,f,g,h} (node IDs 5..8), over the 9-node topology
// with root r=0 and candidate hosts a..d = 1..4 at α = 0.5.
func fig1Instance(t testing.TB, numServices int, alpha float64) *Instance {
	t.Helper()
	g, clients, _ := topology.Fig1Example()
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]Service, numServices)
	for i := range services {
		services[i] = Service{Name: "svc", Clients: clients}
	}
	inst, err := NewInstance(r, services, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func lineInstance(t testing.TB, n int, clientSets [][]graph.NodeID, alpha float64) *Instance {
	t.Helper()
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	services := make([]Service, len(clientSets))
	for i, cs := range clientSets {
		services[i] = Service{Name: "svc", Clients: cs}
	}
	inst, err := NewInstance(r, services, alpha)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewInstanceErrors(t *testing.T) {
	g, clients, _ := topology.Fig1Example()
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewInstance(nil, []Service{{Clients: clients}}, 0); err == nil {
		t.Fatal("nil router should error")
	}
	if _, err := NewInstance(r, nil, 0); err == nil {
		t.Fatal("no services should error")
	}
	if _, err := NewInstance(r, []Service{{Clients: nil}}, 0); err == nil {
		t.Fatal("clientless service should error")
	}
	if _, err := NewInstance(r, []Service{{Clients: clients}}, -0.1); err == nil {
		t.Fatal("negative alpha should error")
	}
	if _, err := NewInstance(r, []Service{{Clients: clients}}, 1.1); err == nil {
		t.Fatal("alpha > 1 should error")
	}
	for _, bad := range []graph.NodeID{graph.NodeID(r.NumNodes()), -1} {
		_, err := NewInstance(r, []Service{{Name: "probe", Clients: append([]graph.NodeID{clients[0]}, bad)}}, 0.5)
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("service 0 (probe): client %d outside", bad)) {
			t.Fatalf("client %d outside the network: err = %v", bad, err)
		}
	}
}

func TestFig1CandidateSets(t *testing.T) {
	// d(C, r) = 2, d(C, a..d) = 3, d(C, clients) = 4 ⇒ d̄: r=0, hosts=0.5,
	// clients=1.
	inst := fig1Instance(t, 1, 0)
	if got := inst.Candidates(0); len(got) != 1 || got[0] != 0 {
		t.Fatalf("H(0) = %v, want [r]", got)
	}
	inst = fig1Instance(t, 1, 0.5)
	if got := inst.Candidates(0); len(got) != 5 {
		t.Fatalf("H(0.5) = %v, want r,a,b,c,d", got)
	}
	inst = fig1Instance(t, 1, 1)
	if got := inst.Candidates(0); len(got) != 9 {
		t.Fatalf("H(1) = %v, want all nodes", got)
	}
}

func TestServicePaths(t *testing.T) {
	inst := fig1Instance(t, 1, 0.5)
	paths, err := inst.ServicePaths(0, 0) // host = r
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 4 {
		t.Fatalf("|P(C, r)| = %d, want 4", len(paths))
	}
	// p(e, r) = {e, a, r} = {5, 1, 0}.
	found := false
	for _, p := range paths {
		if p.Contains(5) && p.Contains(1) && p.Contains(0) && p.Count() == 3 {
			found = true
		}
	}
	if !found {
		t.Fatal("missing path {e, a, r}")
	}
	if _, err := inst.ServicePaths(0, 8); err == nil {
		t.Fatal("non-candidate host should error")
	}
}

func TestPathSetAndEvaluate(t *testing.T) {
	inst := fig1Instance(t, 1, 0.5)
	pl := NewPlacement(1)
	pl.Hosts[0] = 0 // r
	ps, err := inst.PathSet(pl)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 4 {
		t.Fatalf("|P| = %d, want 4", ps.Len())
	}
	m, err := inst.Evaluate(pl)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's Fig. 1 discussion: all 9 nodes covered but only r
	// identifiable.
	if m.Coverage != 9 {
		t.Fatalf("Coverage = %d, want 9", m.Coverage)
	}
	if m.S1 != 1 {
		t.Fatalf("S1 = %d, want 1", m.S1)
	}
}

func TestPathSetErrors(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	if _, err := inst.PathSet(Placement{Hosts: []graph.NodeID{0}}); err == nil {
		t.Fatal("wrong-length placement should error")
	}
	bad := NewPlacement(2)
	bad.Hosts[0] = 8 // not a candidate at α = 0.5
	if _, err := inst.PathSet(bad); err == nil {
		t.Fatal("non-candidate host should error")
	}
	// Unplaced services are fine.
	partial := NewPlacement(2)
	partial.Hosts[0] = 0
	ps, err := inst.PathSet(partial)
	if err != nil {
		t.Fatal(err)
	}
	if ps.Len() != 4 {
		t.Fatalf("|P| = %d, want 4", ps.Len())
	}
}

func TestPlacementHelpers(t *testing.T) {
	pl := NewPlacement(2)
	if pl.Complete() {
		t.Fatal("fresh placement should be incomplete")
	}
	pl.Hosts[0], pl.Hosts[1] = 1, 2
	if !pl.Complete() {
		t.Fatal("filled placement should be complete")
	}
	c := pl.Clone()
	c.Hosts[0] = 9
	if pl.Hosts[0] != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestWorstRelativeDistance(t *testing.T) {
	inst := fig1Instance(t, 2, 1)
	pl := NewPlacement(2)
	pl.Hosts[0] = 0 // r: d̄ = 0
	pl.Hosts[1] = 5 // a client: d̄ = 1
	if got := inst.WorstRelativeDistance(pl); got != 1 {
		t.Fatalf("WorstRelativeDistance = %v, want 1", got)
	}
	pl.Hosts[1] = Unplaced
	if got := inst.WorstRelativeDistance(pl); got != 0 {
		t.Fatalf("WorstRelativeDistance = %v, want 0", got)
	}
}

func TestInstanceAccessors(t *testing.T) {
	inst := fig1Instance(t, 2, 0.5)
	if inst.NumServices() != 2 || inst.NumNodes() != 9 {
		t.Fatal("accessor mismatch")
	}
	if inst.Alpha() != 0.5 {
		t.Fatal("alpha mismatch")
	}
	if !strings.Contains(inst.Service(0).Name, "svc") {
		t.Fatal("service accessor broken")
	}
	if inst.Profile(0) == nil || inst.Router() == nil {
		t.Fatal("profile/router accessor broken")
	}
}
