package placement

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync"
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
	for _, alpha := range []float64{-0.1, 1.1, math.Inf(1), math.NaN()} {
		_, err := NewInstance(r, []Service{{Clients: clients}}, alpha)
		if want := fmt.Sprintf("placement: alpha %g outside [0, 1]", alpha); err == nil || err.Error() != want {
			t.Fatalf("alpha %g: err = %v, want %q", alpha, err, want)
		}
	}
	split := graph.New(3)
	if err := split.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	rs, err := routing.New(split)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewInstance(rs, []Service{{Name: "a", Clients: []graph.NodeID{0}}, {Name: "b", Clients: []graph.NodeID{1}}}, 0.5)
	if want := "placement: service 0 (a): qos: host 2 cannot reach every client"; err == nil || err.Error() != want {
		t.Fatalf("disconnected graph: err = %v, want %q", err, want)
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

// TestNewInstanceConcurrent builds instances from several goroutines at
// once over one lazy router, as concurrent placement jobs on one network
// do, on a hop-count graph (one profile sweep, host trees built on
// demand) and on a weighted one (client trees too). Each must equal the
// instance built alone on a fresh router: the same candidate sets,
// profiles and paths. Run it under -race -count=10.
func TestNewInstanceConcurrent(t *testing.T) {
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", 300, 3))
	if err != nil {
		t.Fatal(err)
	}
	weighted := graph.New(topo.Graph.NumNodes())
	for _, e := range topo.Graph.Edges() {
		if err := weighted.AddWeightedEdge(e.U, e.V, float64(1+(e.U+e.V)%3)); err != nil {
			t.Fatal(err)
		}
	}
	services := make([]Service, 4)
	for s := range services {
		services[s].Name = fmt.Sprint("svc-", s)
		for i := range 8 {
			services[s].Clients = append(services[s].Clients, topo.CandidateClients[(s*8+i)*3%len(topo.CandidateClients)])
		}
	}
	alphas := []float64{0.2, 0.5}
	for _, g := range []*graph.Graph{topo.Graph, weighted} {
		want := make([]*Instance, len(alphas))
		for i, alpha := range alphas {
			fresh, err := routing.NewLazy(g)
			if err != nil {
				t.Fatal(err)
			}
			if want[i], err = NewInstance(fresh, services, alpha); err != nil {
				t.Fatal(err)
			}
		}
		shared, err := routing.NewLazy(g)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]*Instance, 3*len(alphas))
		errs := make([]error, len(got))
		var wg sync.WaitGroup
		for w := range got {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				got[w], errs[w] = NewInstance(shared, services, alphas[w%len(alphas)])
			}(w)
		}
		wg.Wait()
		for w, inst := range got {
			if errs[w] != nil {
				t.Fatalf("weighted %t, goroutine %d: %v", g.Weighted(), w, errs[w])
			}
			ref := want[w%len(alphas)]
			if !reflect.DeepEqual(inst.candidates, ref.candidates) || !reflect.DeepEqual(inst.profiles, ref.profiles) ||
				!reflect.DeepEqual(inst.elements, ref.elements) {
				t.Fatalf("weighted %t, goroutine %d: the instance differs from one built alone at α %g", g.Weighted(), w, alphas[w%len(alphas)])
			}
		}
	}
}
