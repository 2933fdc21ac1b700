package placemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/graph"
	"repro/internal/routing"
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

// buildTenant builds spec's tenant as the server would from its
// document.
func buildTenant(t *testing.T, spec ScenarioSpec) *server.TenantConfig {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := buildScenario("s", raw)
	if err != nil {
		t.Fatalf("buildScenario: %v", err)
	}
	return tc
}

// reviseAndCompare revises tc by change through tc's own reviser and
// checks the tenant the reviser returns against the one buildScenario
// builds from the returned document: node count, failure budget,
// connections, every path bit for bit, and the two place functions'
// answers to one placement job for the scenario's services. It returns
// the revised document, parsed, and the reviser's tenant.
func reviseAndCompare(t *testing.T, tc *server.TenantConfig, change NetworkChange) (ScenarioSpec, *server.TenantConfig) {
	t.Helper()
	body, err := json.Marshal(change)
	if err != nil {
		t.Fatal(err)
	}
	doc, got, err := tc.Revise(body)
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
// boot replay rebuilds. Each revision goes through the reviser of the
// tenant the one before returned, which routes from that tenant's
// network.
func TestReviserTenantMatchesBuild(t *testing.T) {
	t.Run("hierarchy one-link revisions", func(t *testing.T) {
		spec, routers := hierarchySpec(t, 800, 4, 6, 2)
		prev := buildTenant(t, spec)
		base := spec.Edges
		rng := rand.New(rand.NewSource(2))
		for i := range 6 {
			// Even revisions add a link between routers, as placebench's
			// replan does; odd ones join a monitored client straight to
			// its service's host, which must change the monitoring.
			edges := withLink(base, routers, rng)
			if i%2 == 1 {
				edges = clientHostLink(t, base, spec.Placement, i/2)
			}
			next, tc := reviseAndCompare(t, prev, NetworkChange{Nodes: spec.Nodes, Edges: edges})
			if i%2 == 1 && reflect.DeepEqual(tc.Connections, prev.Connections) && samePaths(tc, prev) {
				t.Fatalf("revision %d changed no monitored path", i)
			}
			spec, prev = next, tc
		}
	})
	t.Run("unchanged network", func(t *testing.T) {
		spec, _ := hierarchySpec(t, 400, 3, 4, 1)
		tc := buildTenant(t, spec)
		for range 2 {
			_, tc = reviseAndCompare(t, tc, NetworkChange{Nodes: spec.Nodes, Edges: spec.Edges})
		}
	})
	t.Run("two-link swap", func(t *testing.T) {
		spec, routers := hierarchySpec(t, 400, 3, 4, 1)
		tc := buildTenant(t, spec)
		rng := rand.New(rand.NewSource(4))
		for range 3 {
			// Each revision drops the previous two extra links and adds
			// two new ones.
			edges := withLink(withLink(spec.Edges, routers, rng), routers, rng)
			_, tc = reviseAndCompare(t, tc, NetworkChange{Nodes: spec.Nodes, Edges: edges})
		}
	})
	t.Run("node-count change", func(t *testing.T) {
		spec, routers := hierarchySpec(t, 400, 3, 4, 1)
		tc := buildTenant(t, spec)
		// One more node, hung off a router.
		edges := append(append([][2]int(nil), spec.Edges...), [2]int{routers[0], spec.Nodes})
		revised, tc := reviseAndCompare(t, tc, NetworkChange{Nodes: spec.Nodes + 1, Edges: edges})
		if tc.NumNodes != spec.Nodes+1 || revised.Nodes != spec.Nodes+1 {
			t.Fatalf("revision kept %d nodes", tc.NumNodes)
		}
		reviseAndCompare(t, tc, NetworkChange{Nodes: spec.Nodes, Edges: spec.Edges})
	})
	t.Run("built-in topology", func(t *testing.T) {
		spec := ScenarioSpec{
			Nodes: 5,
			Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
			K:     1,
			Placement: PlacementFile{Alpha: 1,
				Services: []ServiceRecord{{Name: "svc", Clients: []int{0, 4}}}, Hosts: []int{2}},
		}
		revised, tc := reviseAndCompare(t, buildTenant(t, spec), NetworkChange{Topology: "Abovenet"})
		if revised.Topology != "Abovenet" || tc.NumNodes == 5 {
			t.Fatalf("revision onto Abovenet kept topology %q, %d nodes", revised.Topology, tc.NumNodes)
		}
	})
	t.Run("inline revision of a built-in topology", func(t *testing.T) {
		nw, err := BuildTopology("Tiscali")
		if err != nil {
			t.Fatal(err)
		}
		clients := nw.SuggestedClients()
		services := []Service{{Name: "a", Clients: clients[:3]}, {Name: "b", Clients: clients[3:6]}}
		res, err := nw.Place(services, PlaceConfig{Alpha: 0.5})
		if err != nil {
			t.Fatal(err)
		}
		doc := NewPlacementFile("Tiscali", 0.5, services, res.Hosts)
		inline := inlineSpec(nw, doc)
		spec := ScenarioSpec{Topology: "Tiscali", K: 1, Placement: doc}
		rng := rand.New(rand.NewSource(5))
		all := make([]int, nw.NumNodes())
		for v := range all {
			all[v] = v
		}
		revised, _ := reviseAndCompare(t, buildTenant(t, spec),
			NetworkChange{Nodes: nw.NumNodes(), Edges: withLink(inline.Edges, all, rng)})
		if revised.Topology != "" || revised.Placement.Topology != "" || revised.Nodes != nw.NumNodes() {
			t.Fatalf("inline revision of Tiscali names topology %q/%q, %d nodes",
				revised.Topology, revised.Placement.Topology, revised.Nodes)
		}
	})
	t.Run("weighted original", func(t *testing.T) {
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
		revised, _ := reviseAndCompare(t, buildTenant(t, spec), NetworkChange{Nodes: 5, Edges: spec.Edges})
		if revised.Weights != nil {
			t.Fatalf("revised document kept weights %v", revised.Weights)
		}
	})
}

// TestReviseReroutesTrees follows a chain of one-link revisions through
// the reviser's own work, white-box: after each, every tree the revised
// network's router holds must equal a fresh graph.Dijkstra on the
// revised graph, and the revision must have built fewer trees by search
// than building the tenant from its document does.
func TestReviseReroutesTrees(t *testing.T) {
	spec, routers := hierarchySpec(t, 800, 4, 6, 1)
	nw, err := spec.Network()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := buildMonitoring(nw, spec.Placement); err != nil {
		t.Fatal(err)
	}
	base := ScenarioSpec{K: spec.K, Placement: spec.Placement}
	rng := rand.New(rand.NewSource(6))
	for i := range 5 {
		change, err := json.Marshal(NetworkChange{Nodes: spec.Nodes, Edges: withLink(spec.Edges, routers, rng)})
		if err != nil {
			t.Fatal(err)
		}
		searches := graph.Searches()
		next, doc, _, err := nw.revise("s", base, change)
		if err != nil {
			t.Fatal(err)
		}
		rerouted := graph.Searches() - searches
		searches = graph.Searches()
		if _, err := buildScenario("s", doc); err != nil {
			t.Fatal(err)
		}
		if fresh := graph.Searches() - searches; rerouted >= fresh {
			t.Fatalf("revision %d built %d trees by search, its document %d", i, rerouted, fresh)
		}
		for v := 0; v < next.NumNodes(); v++ {
			got, want := next.router.Tree(v), next.g.Dijkstra(v)
			for u := 0; u < next.NumNodes(); u++ {
				if got.Source != want.Source || got.Dist(u) != want.Dist(u) || got.Parent(u) != want.Parent(u) {
					t.Fatalf("revision %d: root %d's tree differs from a fresh one at node %d", i, v, u)
				}
			}
		}
		revised, err := ParseScenarioSpec(doc)
		if err != nil {
			t.Fatal(err)
		}
		nw, base = next, ScenarioSpec{K: revised.K, Placement: revised.Placement}
	}
}

// TestReviseReleasesPreviousNetwork checks, white-box, that a revision
// keeps nothing of the network it was revised from once the reviser has
// returned: over a chain of revisions through each tenant's own reviser,
// holding only the last tenant, the first network's router must become
// unreachable. A router still linked to its predecessor would keep every
// earlier revision, and all their trees, alive.
func TestReviseReleasesPreviousNetwork(t *testing.T) {
	spec, routers := hierarchySpec(t, 400, 3, 4, 1)
	var released atomic.Bool
	last := func() *server.TenantConfig {
		nw, err := spec.Network()
		if err != nil {
			t.Fatal(err)
		}
		paths, conns, err := buildMonitoring(nw, spec.Placement)
		if err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(nw.router, func(*routing.Router) { released.Store(true) })
		tc := tenantConfig("s", nw, spec, paths, conns)
		rng := rand.New(rand.NewSource(7))
		for range 4 {
			change, err := json.Marshal(NetworkChange{Nodes: spec.Nodes, Edges: withLink(spec.Edges, routers, rng)})
			if err != nil {
				t.Fatal(err)
			}
			if _, tc, err = tc.Revise(change); err != nil {
				t.Fatal(err)
			}
		}
		return tc
	}()
	for i := 0; i < 100 && !released.Load(); i++ {
		runtime.GC()
		time.Sleep(time.Millisecond)
	}
	if !released.Load() {
		t.Fatal("the first network's router is still reachable from its fourth revision")
	}
	runtime.KeepAlive(last)
}

// barrierBody is a request body whose first Read waits until every body
// sharing arrive has been read from once: a handler reads the body only
// after resolving the scenario's tenant, so every request behind the
// barrier has resolved the same tenant before any of them revises it.
type barrierBody struct {
	io.Reader
	once   sync.Once
	arrive *sync.WaitGroup
}

func (b *barrierBody) Read(p []byte) (int, error) {
	b.once.Do(func() { b.arrive.Done(); b.arrive.Wait() })
	return b.Reader.Read(p)
}

// TestReplaceScenarioNetworkConcurrent races three PUT …/network on one
// scenario against placement jobs on it; run it under -race. Every PUT
// revises the same tenant, reading its routed network while the jobs
// route on it too: one PUT wins, the others answer 409, and every job
// answers what a cold Network.Place answers on the network it ran on,
// the original or the winner's.
func TestReplaceScenarioNetworkConcurrent(t *testing.T) {
	spec, routers := hierarchySpec(t, 800, 3, 4, 1)
	srv, err := NewScenarioServer(ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddScenario("plan", spec); err != nil {
		t.Fatal(err)
	}
	services := spec.Placement.ToServices()
	job := server.PlacementRequest{Alpha: spec.Placement.Alpha}
	for _, s := range services {
		job.Services = append(job.Services, server.ServiceSpec{Name: s.Name, Clients: s.Clients})
	}
	jobBody, err := json.Marshal(job)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	changes := make([]NetworkChange, 3)
	for i := range changes {
		changes[i] = NetworkChange{Nodes: spec.Nodes, Edges: withLink(spec.Edges, routers, rng)}
	}
	var arrive, done sync.WaitGroup
	arrive.Add(len(changes))
	codes := make([]int, len(changes))
	jobs := make([]*httptest.ResponseRecorder, 4)
	h := srv.Handler()
	for i, change := range changes {
		body, err := json.Marshal(change)
		if err != nil {
			t.Fatal(err)
		}
		done.Add(1)
		go func() {
			defer done.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPut, "/v1/scenarios/plan/network",
				&barrierBody{Reader: bytes.NewReader(body), arrive: &arrive}))
			codes[i] = rec.Code
		}()
	}
	for j := range jobs {
		jobs[j] = httptest.NewRecorder()
		done.Add(1)
		go func() {
			defer done.Done()
			h.ServeHTTP(jobs[j], httptest.NewRequest(http.MethodPost, "/v1/scenarios/plan/placements", bytes.NewReader(jobBody)))
		}()
	}
	done.Wait()

	winner := -1
	for i, code := range codes {
		switch {
		case code == http.StatusOK && winner < 0:
			winner = i
		case code != http.StatusConflict:
			t.Fatalf("PUT codes %v: want one 200 and 409s", codes)
		}
	}
	if winner < 0 {
		t.Fatalf("PUT codes %v: no PUT won", codes)
	}
	// A job answers the cold placement of the network it ran on.
	cold := func(edges [][2]int) string {
		t.Helper()
		nw, err := ScenarioSpec{Nodes: spec.Nodes, Edges: edges}.Network()
		if err != nil {
			t.Fatal(err)
		}
		res, err := nw.Place(services, PlaceConfig{Alpha: job.Alpha})
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(res.Hosts, res.Objective, res.Evaluations)
	}
	want := map[string]bool{cold(spec.Edges): true, cold(changes[winner].Edges): true}
	for _, rec := range jobs {
		var res server.PlacementResult
		if rec.Code != http.StatusOK {
			t.Fatalf("placement job: %d %s", rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprint(res.Hosts, res.Objective, res.Evaluations); !want[got] {
			t.Fatalf("placement job answered %s, not a cold placement of either network", got)
		}
	}
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
// between two one-link deltas between routers, so each one removes one
// link and adds another, re-routes the network from the previous
// revision's trees, re-places the services with a cold lazy run and
// builds the tenant. The scenario is created before the timer.
// trees-built/op counts the shortest-path trees a revision builds by
// search rather than carrying over from the previous one; it is
// deterministic.
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
	searches := graph.Searches()
	for i := 0; i < b.N; i++ {
		if err := srv.ReplaceScenarioNetwork("plan", deltas[i%2]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(graph.Searches()-searches)/float64(b.N), "trees-built/op")
}
