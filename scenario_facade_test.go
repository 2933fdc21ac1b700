package placemon_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	placemon "repro"
	"repro/placemonclient"
)

// lineScenarioSpec is a self-contained inline scenario: a 5-node line
// 0-1-2-3-4 with one service at host 2 serving clients 0 and 4, i.e. two
// monitored connections.
func lineScenarioSpec() placemon.ScenarioSpec {
	return placemon.ScenarioSpec{
		Nodes: 5,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}},
		Placement: placemon.PlacementFile{
			Alpha:    1,
			Services: []placemon.ServiceRecord{{Name: "svc", Clients: []int{0, 4}}},
			Hosts:    []int{2},
		},
	}
}

func scenarioGET(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, string(raw)
}

// TestScenarioServerEndToEnd: a registry-only facade server hosts
// dynamically added scenarios with working ingest and diagnosis, and the
// admin errors are typed.
func TestScenarioServerEndToEnd(t *testing.T) {
	srv, err := placemon.NewScenarioServer(placemon.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if err := srv.AddScenario("edge-net", lineScenarioSpec()); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddScenario("edge-net", lineScenarioSpec()); !errors.Is(err, placemon.ErrScenarioExists) {
		t.Fatalf("duplicate add error = %v, want ErrScenarioExists", err)
	}
	// A built-in-topology scenario rides the same API.
	topoSpec := placemon.ScenarioSpec{
		Topology: "Abovenet",
		Placement: placemon.PlacementFile{
			Alpha:    1,
			Services: []placemon.ServiceRecord{{Clients: []int{1, 2}}},
			Hosts:    []int{0},
		},
	}
	if err := srv.AddScenario("abovenet", topoSpec); err != nil {
		t.Fatal(err)
	}
	if got, want := srv.Scenarios(), []string{"abovenet", "edge-net"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Scenarios() = %v, want %v", got, want)
	}

	// Ingest an outage into edge-net and diagnose it over HTTP.
	resp, err := http.Post(ts.URL+"/v1/scenarios/edge-net/observations", "application/json",
		strings.NewReader(`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario ingest status = %d", resp.StatusCode)
	}
	if code, body := scenarioGET(t, ts.URL+"/v1/scenarios/edge-net/diagnosis"); code != http.StatusOK || !strings.Contains(body, `"in_outage":true`) {
		t.Fatalf("edge-net diagnosis = %d %s", code, body)
	}
	// The sibling scenario is untouched.
	if _, body := scenarioGET(t, ts.URL+"/v1/scenarios/abovenet/diagnosis"); !strings.Contains(body, `"in_outage":false`) {
		t.Fatalf("abovenet diagnosis leaked state: %s", body)
	}
	// No default scenario: legacy routes answer 404.
	if code, _ := scenarioGET(t, ts.URL+"/v1/diagnosis"); code != http.StatusNotFound {
		t.Fatalf("legacy route on registry-only server = %d, want 404", code)
	}

	if err := srv.RemoveScenario(context.Background(), "abovenet"); err != nil {
		t.Fatal(err)
	}
	if err := srv.RemoveScenario(context.Background(), "abovenet"); !errors.Is(err, placemon.ErrScenarioNotFound) {
		t.Fatalf("double remove error = %v, want ErrScenarioNotFound", err)
	}
	if got, want := srv.Scenarios(), []string{"edge-net"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("Scenarios() after remove = %v, want %v", got, want)
	}
}

// TestPlacementClientOutOfRange: a placement job naming a client outside
// the network is the caller's error, answered 400 with the client named,
// and the facade entry points return an error rather than panic.
func TestPlacementClientOutOfRange(t *testing.T) {
	srv, err := placemon.NewScenarioServer(placemon.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.AddScenario("x", placemon.ScenarioSpec{
		Topology: "Abovenet",
		Placement: placemon.PlacementFile{
			Alpha:    1,
			Services: []placemon.ServiceRecord{{Clients: []int{1, 2}}},
			Hosts:    []int{0},
		},
	}); err != nil {
		t.Fatal(err)
	}
	for _, client := range []string{"99999", "-1"} {
		resp, err := http.Post(ts.URL+"/v1/scenarios/x/placements", "application/json",
			strings.NewReader(`{"alpha":0.3,"services":[{"clients":[`+client+`]}]}`))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(raw), "client "+client+" outside") {
			t.Fatalf("client %s: %d %s, want 400 naming the client", client, resp.StatusCode, raw)
		}
	}

	nw, err := placemon.BuildTopology("Abovenet")
	if err != nil {
		t.Fatal(err)
	}
	services := []placemon.Service{{Name: "s", Clients: []int{1, 500}}}
	if _, err := nw.Place(services, placemon.PlaceConfig{Alpha: 0.3}); err == nil {
		t.Fatal("Place accepted client 500")
	}
	if _, err := nw.CandidateHosts([]int{500}, 0.3); err == nil {
		t.Fatal("CandidateHosts accepted client 500")
	}
	if _, err := nw.Evaluate(services, []int{0}, 0.3); err == nil {
		t.Fatal("Evaluate accepted client 500")
	}
	if _, err := nw.Observe(services, []int{0}, 0.3, nil); err == nil {
		t.Fatal("Observe accepted client 500")
	}
}

// TestScenarioLimitTyped: the MaxScenarios cap surfaces as
// ErrScenarioLimit through the facade.
func TestScenarioLimitTyped(t *testing.T) {
	srv, err := placemon.NewScenarioServer(placemon.ServerConfig{MaxScenarios: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddScenario("one", lineScenarioSpec()); err != nil {
		t.Fatal(err)
	}
	if err := srv.AddScenario("two", lineScenarioSpec()); !errors.Is(err, placemon.ErrScenarioLimit) {
		t.Fatalf("over-cap add error = %v, want ErrScenarioLimit", err)
	}
}

// TestWALDirSurvivesRestart: scenarios added to a WAL-backed server
// recover on the next boot, and removed ones stay gone.
func TestWALDirSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := placemon.ServerConfig{WALDir: dir}

	srv1, err := placemon.NewScenarioServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv1.AddScenario("survivor", lineScenarioSpec()); err != nil {
		t.Fatal(err)
	}
	if err := srv1.AddScenario("casualty", lineScenarioSpec()); err != nil {
		t.Fatal(err)
	}
	if err := srv1.RemoveScenario(context.Background(), "casualty"); err != nil {
		t.Fatal(err)
	}
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srv2, err := placemon.NewScenarioServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if got, want := srv2.Scenarios(), []string{"survivor"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("reloaded scenarios = %v, want %v", got, want)
	}
	ts := httptest.NewServer(srv2.Handler())
	defer ts.Close()
	if code, body := scenarioGET(t, ts.URL+"/v1/scenarios/survivor/diagnosis"); code != http.StatusOK {
		t.Fatalf("reloaded scenario not serving: %d %s", code, body)
	}
}

// TestParseScenarioSpecValidation: malformed documents fail parse with a
// useful error instead of failing deep inside an engine.
func TestParseScenarioSpecValidation(t *testing.T) {
	for _, tc := range []struct {
		name, raw string
	}{
		{"not json", `{`},
		{"unknown field", `{"bogus": 1, "placement": {"alpha": 0, "services": [], "hosts": []}}`},
		{"negative nodes", `{"nodes": -3, "placement": {"alpha": 0, "services": [], "hosts": []}}`},
		{"negative k", `{"nodes": 2, "k": -1, "placement": {"alpha": 0, "services": [], "hosts": []}}`},
		{"host service mismatch", `{"nodes": 2, "edges": [[0,1]], "placement": {"alpha": 0, "services": [{"clients": [0]}], "hosts": []}}`},
		{"clientless service", `{"nodes": 2, "edges": [[0,1]], "placement": {"alpha": 0, "services": [{"clients": []}], "hosts": [1]}}`},
		{"alpha out of range", `{"nodes": 2, "edges": [[0,1]], "placement": {"alpha": 7, "services": [{"clients": [0]}], "hosts": [1]}}`},
		{"weights not aligned with edges", `{"nodes": 3, "edges": [[0,1],[1,2]], "weights": [0.5], "placement": {"alpha": 1, "services": [{"clients": [0]}], "hosts": [1]}}`},
		{"weights with a named topology", `{"topology": "Abovenet", "weights": [0.5], "placement": {"alpha": 1, "services": [{"clients": [0]}], "hosts": [1]}}`},
		{"trailing word", `{"nodes": 2, "edges": [[0,1]], "placement": {"alpha": 1, "services": [{"clients": [0]}], "hosts": [1]}} trailing`},
		{"trailing object", `{"nodes": 2, "edges": [[0,1]], "placement": {"alpha": 1, "services": [{"clients": [0]}], "hosts": [1]}}{"x":1}`},
		{"trailing bracket", `{"nodes": 2, "edges": [[0,1]], "placement": {"alpha": 1, "services": [{"clients": [0]}], "hosts": [1]}}]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := placemon.ParseScenarioSpec([]byte(tc.raw)); err == nil {
				t.Fatalf("spec %s parsed without error", tc.raw)
			}
		})
	}

	// The happy path round-trips.
	sp, err := placemon.ParseScenarioSpec([]byte(
		`{"nodes": 5, "edges": [[0,1],[1,2],[2,3],[3,4]], "placement": {"alpha": 1, "services": [{"clients": [0,4]}], "hosts": [2]}}`))
	if err != nil {
		t.Fatal(err)
	}
	nw, err := sp.Network()
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != 5 {
		t.Fatalf("spec network has %d nodes, want 5", nw.NumNodes())
	}
}

// hugeNodes is a node count no one-edge network can connect. It is large
// enough that building its graph before finding it disconnected takes
// seconds and hundreds of megabytes, and small enough that doing so is
// still safe.
const hugeNodes = 2_000_000

// wantCountsNamed fails unless err's text names both the node count and
// the one edge.
func wantCountsNamed(t *testing.T, what, text string) {
	t.Helper()
	if !strings.Contains(text, "2000000 nodes") || !strings.Contains(text, "have 1") {
		t.Fatalf("%s: %q does not name both the 2000000 nodes and the 1 edge", what, text)
	}
}

// TestNodeCountBeyondEdgesRejected: a network that names more nodes than
// its edges can connect is rejected before anything is allocated for
// those nodes, by the facade constructors and on every HTTP route that
// builds a network.
func TestNodeCountBeyondEdgesRejected(t *testing.T) {
	spec := placemon.ScenarioSpec{
		Nodes: hugeNodes,
		Edges: [][2]int{{0, 1}},
		Placement: placemon.PlacementFile{Alpha: 1,
			Services: []placemon.ServiceRecord{{Clients: []int{0}}}, Hosts: []int{1}},
	}
	for name, build := range map[string]func() error{
		"NewNetwork": func() error {
			_, err := placemon.NewNetwork(hugeNodes, []placemon.Edge{{U: 0, V: 1}})
			return err
		},
		"ScenarioSpec.Network": func() error {
			_, err := spec.Network()
			return err
		},
	} {
		err := build()
		if err == nil {
			t.Fatalf("%s built a %d-node network from one edge", name, hugeNodes)
		}
		wantCountsNamed(t, name, err.Error())
		if allocs := testing.AllocsPerRun(1, func() { _ = build() }); allocs > 10 {
			t.Fatalf("%s made %v allocations to reject the network, want a handful", name, allocs)
		}
	}

	srv, err := placemon.NewScenarioServer(placemon.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if err := srv.AddScenario("line", lineScenarioSpec()); err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	for _, req := range []struct{ path, body string }{
		{"/v1/scenarios/huge", string(raw)},
		{"/v1/scenarios/line/network", `{"nodes":2000000,"edges":[[0,1]]}`},
	} {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPut, req.path, strings.NewReader(req.body)))
		if rec.Code != http.StatusUnprocessableEntity {
			t.Fatalf("PUT %s: %d %s, want 422", req.path, rec.Code, rec.Body)
		}
		wantCountsNamed(t, "PUT "+req.path, rec.Body.String())
	}
}

// TestScenarioSpecNetworkFallback: a spec without Topology or inline
// edges falls back to the placement document's topology name, and a spec
// naming nothing errors.
func TestScenarioSpecNetworkFallback(t *testing.T) {
	sp := placemon.ScenarioSpec{
		Placement: placemon.PlacementFile{Topology: "Abovenet", Alpha: 1,
			Services: []placemon.ServiceRecord{{Clients: []int{1}}}, Hosts: []int{0}},
	}
	nw, err := sp.Network()
	if err != nil {
		t.Fatal(err)
	}
	want, err := placemon.BuildTopology("Abovenet")
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != want.NumNodes() {
		t.Fatalf("fallback network has %d nodes, want %d", nw.NumNodes(), want.NumNodes())
	}
	if _, err := (placemon.ScenarioSpec{}).Network(); err == nil {
		t.Fatal("nameless spec built a network")
	}
}

// TestReplaceScenarioNetworkEndToEnd drives the full re-placement
// stack: facade method and placemonclient against a live
// server, replacing an inline network and then a built-in topology while
// the scenario keeps serving under its ID.
func TestReplaceScenarioNetworkEndToEnd(t *testing.T) {
	srv, err := placemon.NewScenarioServer(placemon.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if err := srv.AddScenario("edge-net", lineScenarioSpec()); err != nil {
		t.Fatal(err)
	}

	// Grow the line by two nodes; the service is re-placed automatically.
	change := placemon.NetworkChange{
		Nodes: 7,
		Edges: [][2]int{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}},
	}
	if err := srv.ReplaceScenarioNetwork("edge-net", change); err != nil {
		t.Fatal(err)
	}
	code, body := scenarioGET(t, ts.URL+"/v1/scenarios/edge-net")
	if code != http.StatusOK || !strings.Contains(body, `"connections":2`) {
		t.Fatalf("post-replace info: %d %s", code, body)
	}
	resp, err := http.Post(ts.URL+"/v1/scenarios/edge-net/observations", "application/json",
		strings.NewReader(`{"time":1,"reports":[{"connection":0,"up":false}]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace ingest: %d", resp.StatusCode)
	}

	// The same replacement rides the typed client, this time onto a
	// built-in topology.
	c, err := placemonclient.New(placemonclient.Config{BaseURL: ts.URL})
	if err != nil {
		t.Fatal(err)
	}
	info, err := c.Scenario("edge-net").ReplaceNetwork(context.Background(),
		placemonclient.NetworkChange{Topology: "Abovenet"})
	if err != nil {
		t.Fatal(err)
	}
	if info.ID != "edge-net" || info.Connections != 2 {
		t.Fatalf("client replace answered %+v", info)
	}

	// Typed errors: unknown scenario and a change naming no network.
	if err := srv.ReplaceScenarioNetwork("ghost", change); !errors.Is(err, placemon.ErrScenarioNotFound) {
		t.Fatalf("unknown scenario error = %v, want ErrScenarioNotFound", err)
	}
	if err := srv.ReplaceScenarioNetwork("edge-net", placemon.NetworkChange{}); err == nil {
		t.Fatal("empty network change should error")
	}
}
