package placemon

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"repro/internal/server"
	"repro/internal/topology"
)

// hierarchySpec is a scenario on a generated hierarchy of about n nodes:
// the network inline, numServices × clientsPer clients drawn from the
// host tier with seed 1, placed by the facade at α 0.3, with failure
// budget k. It also returns the hierarchy's routers, every node off the
// host tier.
func hierarchySpec(tb testing.TB, n, numServices, clientsPer, k int) (ScenarioSpec, []int) {
	tb.Helper()
	topo, err := topology.BuildHierarchy(topology.HierarchyForNodes("plan", n, 1))
	if err != nil {
		tb.Fatal(err)
	}
	sp := ScenarioSpec{Nodes: topo.Graph.NumNodes(), K: k}
	for _, e := range topo.Graph.Edges() {
		sp.Edges = append(sp.Edges, [2]int{e.U, e.V})
	}
	isHost := make([]bool, sp.Nodes)
	for _, c := range topo.CandidateClients {
		isHost[c] = true
	}
	var routers []int
	for v, host := range isHost {
		if !host {
			routers = append(routers, v)
		}
	}
	perm := rand.New(rand.NewSource(1)).Perm(len(topo.CandidateClients))
	services := make([]Service, numServices)
	for s := range services {
		services[s].Name = fmt.Sprintf("svc-%d", s)
		for i := range clientsPer {
			services[s].Clients = append(services[s].Clients, topo.CandidateClients[perm[s*clientsPer+i]])
		}
	}
	nw, err := sp.Network()
	if err != nil {
		tb.Fatal(err)
	}
	res, err := nw.Place(services, PlaceConfig{Alpha: 0.3})
	if err != nil {
		tb.Fatal(err)
	}
	sp.Placement = NewPlacementFile("", 0.3, services, res.Hosts)
	return sp, routers
}

// withLink returns edges plus one link between two distinct nodes drawn
// from nodes that are not yet adjacent.
func withLink(edges [][2]int, nodes []int, rng *rand.Rand) [][2]int {
	adj := adjacency(edges)
	for {
		u, v := nodes[rng.Intn(len(nodes))], nodes[rng.Intn(len(nodes))]
		if u != v && !adj[[2]int{min(u, v), max(u, v)}] {
			return append(append([][2]int(nil), edges...), [2]int{u, v})
		}
	}
}

// clientHostLink returns edges plus a link joining a monitored client of
// doc straight to its service's host: the first such pair, searching from
// service s on, that is not adjacent yet.
func clientHostLink(t *testing.T, edges [][2]int, doc PlacementFile, s int) [][2]int {
	t.Helper()
	adj := adjacency(edges)
	for i := range doc.Services {
		svc := (s + i) % len(doc.Services)
		h := doc.Hosts[svc]
		for _, c := range doc.Services[svc].Clients {
			if c != h && !adj[[2]int{min(c, h), max(c, h)}] {
				return append(append([][2]int(nil), edges...), [2]int{c, h})
			}
		}
	}
	t.Fatal("every monitored client is adjacent to its host")
	return nil
}

// adjacency is the set of edges as ordered node pairs.
func adjacency(edges [][2]int) map[[2]int]bool {
	adj := make(map[[2]int]bool, len(edges))
	for _, e := range edges {
		adj[[2]int{min(e[0], e[1]), max(e[0], e[1])}] = true
	}
	return adj
}

// reviseAndCompare revises spec by change with revise and checks the
// tenant the reviser returns against the one buildScenario builds from
// the returned document: node count, failure budget, connections, every
// path bit for bit, and the two place functions' answers to one
// placement job for the scenario's services. It returns the revised
// document, parsed, and the reviser's tenant.
func reviseAndCompare(t *testing.T, revise server.ReviseFunc, spec ScenarioSpec, change NetworkChange) (ScenarioSpec, *server.TenantConfig) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(change)
	if err != nil {
		t.Fatal(err)
	}
	doc, got, err := revise("s", raw, body)
	if err != nil {
		t.Fatalf("revise: %v", err)
	}
	want, err := buildScenario("s", doc)
	if err != nil {
		t.Fatalf("buildScenario on the revised document: %v", err)
	}
	if got.NumNodes != want.NumNodes || got.K != want.K {
		t.Fatalf("reviser's tenant has %d nodes and K %d, the document's %d and %d", got.NumNodes, got.K, want.NumNodes, want.K)
	}
	if !reflect.DeepEqual(got.Connections, want.Connections) {
		t.Fatalf("reviser's connections %v, the document's %v", got.Connections, want.Connections)
	}
	if !samePaths(got, want) {
		t.Fatal("reviser's paths differ from the document's")
	}
	revised, err := ParseScenarioSpec(doc)
	if err != nil {
		t.Fatal(err)
	}
	job := server.PlacementRequest{Alpha: revised.Placement.Alpha}
	for _, s := range revised.Placement.Services {
		job.Services = append(job.Services, server.ServiceSpec{Name: s.Name, Clients: s.Clients})
	}
	gotPlace, err := got.Place(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	wantPlace, err := want.Place(context.Background(), job)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotPlace, wantPlace) {
		t.Fatalf("reviser's place function answered %+v, the document's %+v", gotPlace, wantPlace)
	}
	return revised, got
}

// TestReviserTenantMatchesBuild pins the reviser's half of the
// ReviseFunc contract: the tenant it hands the server, built from the
// network and instance the re-placement routed, is the tenant
// buildScenario builds from the document it returns, which is the one
// boot replay rebuilds.
func TestReviserTenantMatchesBuild(t *testing.T) {
	t.Run("hierarchy one-link revisions", func(t *testing.T) {
		revise := newNetworkReviser()
		spec, routers := hierarchySpec(t, 800, 4, 6, 2)
		base := spec.Edges
		rng := rand.New(rand.NewSource(2))
		var prev *server.TenantConfig
		for i := range 6 {
			// Even revisions add a link between routers, as placebench's
			// replan does; odd ones join a monitored client straight to
			// its service's host, which must change the monitoring.
			edges := withLink(base, routers, rng)
			if i%2 == 1 {
				edges = clientHostLink(t, base, spec.Placement, i/2)
			}
			next, tc := reviseAndCompare(t, revise, spec, NetworkChange{Nodes: spec.Nodes, Edges: edges})
			if i%2 == 1 && reflect.DeepEqual(tc.Connections, prev.Connections) && samePaths(tc, prev) {
				t.Fatalf("revision %d changed no monitored path", i)
			}
			spec, prev = next, tc
		}
	})
	t.Run("built-in topology", func(t *testing.T) {
		revise := newNetworkReviser()
		spec := ScenarioSpec{
			Nodes: 5,
			Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
			K:     1,
			Placement: PlacementFile{Alpha: 1,
				Services: []ServiceRecord{{Name: "svc", Clients: []int{0, 4}}}, Hosts: []int{2}},
		}
		revised, tc := reviseAndCompare(t, revise, spec, NetworkChange{Topology: "Abovenet"})
		if revised.Topology != "Abovenet" || tc.NumNodes == 5 {
			t.Fatalf("revision onto Abovenet kept topology %q, %d nodes", revised.Topology, tc.NumNodes)
		}
	})
	t.Run("weighted original", func(t *testing.T) {
		revise := newNetworkReviser()
		// A 4-cycle 0-1-2-3 whose heavy 0-3 edge sends 0's traffic to 3
		// the long way round; the revision drops the weights.
		spec := ScenarioSpec{
			Nodes:   5,
			Edges:   [][2]int{{0, 1}, {1, 2}, {2, 3}, {0, 3}, {3, 4}},
			Weights: []float64{1, 1, 1, 5, 1},
			K:       3,
			Placement: PlacementFile{Alpha: 1,
				Services: []ServiceRecord{{Name: "svc", Clients: []int{0, 4}}}, Hosts: []int{3}},
		}
		revised, _ := reviseAndCompare(t, revise, spec, NetworkChange{Nodes: 5, Edges: spec.Edges})
		if revised.Weights != nil {
			t.Fatalf("revised document kept weights %v", revised.Weights)
		}
	})
}

// samePaths reports whether two tenants' paths are bit-equal.
func samePaths(a, b *server.TenantConfig) bool {
	if len(a.Paths) != len(b.Paths) {
		return false
	}
	for i := range a.Paths {
		if !a.Paths[i].Equal(b.Paths[i]) {
			return false
		}
	}
	return true
}

// TestReplaceScenarioNetworkRejectedChanges: a network change is one
// JSON document, so a closing bracket or brace after it is rejected like
// any other trailing data; and a change whose revised document
// buildScenario would refuse is refused before the server logs it, since
// boot replay could not rebuild it.
func TestReplaceScenarioNetworkRejectedChanges(t *testing.T) {
	srv, err := NewScenarioServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	spec := ScenarioSpec{
		Nodes: 5,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		Placement: PlacementFile{Alpha: 1,
			Services: []ServiceRecord{{Name: "svc", Clients: []int{0, 4}}}, Hosts: []int{2}},
	}
	if err := srv.AddScenario("line", spec); err != nil {
		t.Fatal(err)
	}
	change := `{"nodes":6,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5]]}`
	for _, body := range []string{
		change + "]",
		change + "}",
		change + " {}",
		`{"topology":"Abovenet","nodes":-1}`,
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/scenarios/line/network", strings.NewReader(body)))
		if rec.Code != http.StatusUnprocessableEntity {
			t.Errorf("change %s: %d %s, want 422", body, rec.Code, rec.Body)
		}
	}
}

// TestReplaceScenarioNetworkWALReplay runs the facade's own reviser
// through a write-ahead log: create, ingest, two network revisions,
// ingest, crash, and reopen. The recovered daemon rebuilds each revision
// from its logged document, so it must export byte-identical state and
// serve the same connections and diagnosis as the live one did.
func TestReplaceScenarioNetworkWALReplay(t *testing.T) {
	dir := t.TempDir()
	spec, routers := hierarchySpec(t, 400, 3, 4, 1)
	srv, err := NewScenarioServer(ServerConfig{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.AddScenario("plan", spec); err != nil {
		t.Fatal(err)
	}
	h := srv.Handler()
	call := func(h http.Handler, method, path, body string) string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			t.Fatalf("%s %s: %d %s", method, path, rec.Code, rec.Body)
		}
		return rec.Body.String()
	}
	call(h, http.MethodPost, "/v1/scenarios/plan/observations",
		`{"batch_id":"pre","time":1,"reports":[{"connection":0,"up":false}]}`)
	rng := rand.New(rand.NewSource(3))
	for range 2 {
		change := NetworkChange{Nodes: spec.Nodes, Edges: withLink(spec.Edges, routers, rng)}
		if err := srv.ReplaceScenarioNetwork("plan", change); err != nil {
			t.Fatal(err)
		}
	}
	call(h, http.MethodPost, "/v1/scenarios/plan/observations",
		`{"batch_id":"post","time":2,"reports":[{"connection":1,"up":false},{"connection":2,"up":true}]}`)
	want, err := srv.StateExport()
	if err != nil {
		t.Fatal(err)
	}
	wantDiag := call(h, http.MethodGet, "/v1/scenarios/plan/diagnosis", "")
	srv.Abort()

	srv2, err := NewScenarioServer(ServerConfig{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Abort()
	got, err := srv2.StateExport()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("recovered state diverged:\n%s\nvs\n%s", got, want)
	}
	if gotDiag := call(srv2.Handler(), http.MethodGet, "/v1/scenarios/plan/diagnosis", ""); gotDiag != wantDiag {
		t.Fatalf("recovered diagnosis diverged:\n%s\nvs\n%s", gotDiag, wantDiag)
	}
}

// BenchmarkReplaceNetwork times one network revision of a scenario the
// size of placebench's replan tenant: a ~5 000-node hierarchy, 8
// services × 10 clients drawn with seed 1, α 0.3. Iterations alternate
// between two one-link deltas between routers, so each one re-routes the
// network, re-places the services with a cold lazy run and builds the
// tenant. The scenario is created before the timer.
func BenchmarkReplaceNetwork(b *testing.B) {
	spec, routers := hierarchySpec(b, 5000, 8, 10, 0)
	srv, err := NewScenarioServer(ServerConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddScenario("plan", spec); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	deltas := []NetworkChange{
		{Nodes: spec.Nodes, Edges: withLink(spec.Edges, routers, rng)},
		{Nodes: spec.Nodes, Edges: withLink(spec.Edges, routers, rng)},
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := srv.ReplaceScenarioNetwork("plan", deltas[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
