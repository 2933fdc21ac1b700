package placemon_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	placemon "repro"
)

// ingestStates posts one batch of connection states to the legacy ingest
// route and returns the legacy diagnosis that follows.
func ingestStates(t *testing.T, base string, obs *placemon.Observation) [][]int {
	t.Helper()
	var reports []string
	for i, down := range obs.Failed {
		reports = append(reports, fmt.Sprintf(`{"connection": %d, "up": %v}`, i, !down))
	}
	resp, err := http.Post(base+"/v1/observations", "application/json",
		strings.NewReader(fmt.Sprintf(`{"time": 1, "reports": [%s]}`, strings.Join(reports, ","))))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d", resp.StatusCode)
	}
	resp, err = http.Get(base + "/v1/diagnosis")
	if err != nil {
		t.Fatal(err)
	}
	var diag struct {
		Diagnosis *struct {
			Candidates [][]int `json:"candidates"`
		} `json:"diagnosis"`
	}
	mustDecode(t, resp, &diag)
	if diag.Diagnosis == nil {
		t.Fatal("outage without a diagnosis")
	}
	return diag.Diagnosis.Candidates
}

// TestDefaultScenarioNetworkReplace: the default scenario NewServer seeds
// takes PUT /v1/scenarios/default/network like any scenario. The legacy
// routes and Server.Connections follow the new network. Afterwards a
// restart with the original boot document is refused, and one through
// NewScenarioServer serves the revised default.
func TestDefaultScenarioNetworkReplace(t *testing.T) {
	cfg := placemon.ServerConfig{WALDir: t.TempDir()}
	nw, err := placemon.BuildTopology("Abovenet")
	if err != nil {
		t.Fatal(err)
	}
	clients := nw.SuggestedClients()
	services := []placemon.Service{{Name: "svc-0", Clients: clients[:2]}, {Name: "svc-1", Clients: clients[2:4]}}
	const alpha = 0.6
	res, err := nw.Place(services, placemon.PlaceConfig{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	doc := placemon.NewPlacementFile("Abovenet", alpha, services, res.Hosts)
	srv, err := placemon.NewServer(nw, doc, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	req, err := http.NewRequest(http.MethodPut, ts.URL+"/v1/scenarios/default/network",
		strings.NewReader(`{"topology": "Tiscali"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace default network = %d", resp.StatusCode)
	}

	// The services were re-placed on Tiscali, and the legacy routes now
	// monitor the Tiscali paths.
	tiscali, err := placemon.BuildTopology("Tiscali")
	if err != nil {
		t.Fatal(err)
	}
	moved, err := tiscali.Place(services, placemon.PlaceConfig{Alpha: alpha})
	if err != nil {
		t.Fatal(err)
	}
	obs, err := tiscali.Observe(services, moved.Hosts, alpha, []int{moved.Hosts[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(srv.Connections(), obs.Connections) {
		t.Fatalf("Connections() = %v, want the re-placed %v", srv.Connections(), obs.Connections)
	}
	local, err := tiscali.Localize(obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ingestStates(t, ts.URL, obs); !reflect.DeepEqual(got, local.Candidates) {
		t.Fatalf("legacy diagnosis %v, want Tiscali's %v", got, local.Candidates)
	}
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := placemon.NewServer(nw, doc, cfg); err == nil || !strings.Contains(err.Error(), `"default"`) {
		t.Fatalf("restart with the original document = %v, want a refusal naming \"default\"", err)
	}
	srv2, err := placemon.NewScenarioServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	if !reflect.DeepEqual(srv2.Connections(), obs.Connections) {
		t.Fatalf("restarted Connections() = %v, want the revised %v", srv2.Connections(), obs.Connections)
	}
}

// TestNewServerWeightedNetwork: a loaded graph keeps its edge weights in
// the default scenario. On the diamond with one half-weight edge, 0→3
// routes through 2 by weight but would route through 1 by hop count.
func TestNewServerWeightedNetwork(t *testing.T) {
	nw, err := placemon.Load(strings.NewReader("edge 0 1\nedge 0 2\nedge 1 3\nedge 2 3 0.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if got := nw.PathNodes(0, 3); !reflect.DeepEqual(got, []int{0, 2, 3}) {
		t.Fatalf("weighted route 0→3 = %v, want [0 2 3]", got)
	}
	services := []placemon.Service{{Name: "s", Clients: []int{0}}}
	srv, err := placemon.NewServer(nw, placemon.NewPlacementFile("", 1, services, []int{3}), placemon.ServerConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Node 2 fails: the served path 0-2-3 goes down, and only nodes on it
	// are suspects.
	obs, err := nw.Observe(services, []int{3}, 1, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !obs.AnyFailure() {
		t.Fatal("failing node 2 broke no connection")
	}
	local, err := nw.Localize(obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if got := ingestStates(t, ts.URL, obs); !reflect.DeepEqual(got, local.Candidates) {
		t.Fatalf("served diagnosis %v, want the weighted %v", got, local.Candidates)
	}

	// Placement jobs run on the weighted network too: a client at 3 with
	// slack 0.5 gets host 2 by weight, where hop count would pick 1.
	want, err := nw.Place([]placemon.Service{{Name: "s", Clients: []int{3}}}, placemon.PlaceConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want.Hosts, []int{2}) {
		t.Fatalf("weighted placement = %v, want [2]", want.Hosts)
	}
	resp, err := http.Post(ts.URL+"/v1/placements", "application/json",
		strings.NewReader(`{"services": [{"name": "s", "clients": [3]}], "alpha": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	var job struct {
		Hosts           []int `json:"hosts"`
		Distinguishable int64 `json:"distinguishable"`
	}
	mustDecode(t, resp, &job)
	if !reflect.DeepEqual(job.Hosts, want.Hosts) || job.Distinguishable != want.Distinguishable {
		t.Fatalf("served placement %+v, want hosts %v distinguishable %d", job, want.Hosts, want.Distinguishable)
	}
}
