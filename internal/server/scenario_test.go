package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bitset"
)

// testSpec is the scenario document the test builder understands: a
// compact form of TenantConfig with paths as index lists.
type testSpec struct {
	NumNodes    int          `json:"num_nodes"`
	K           int          `json:"k,omitempty"`
	Paths       [][]int      `json:"paths"`
	Connections []Connection `json:"connections"`
}

// testBuild is a BuildFunc over testSpec with an echo place function.
func testBuild(id string, raw []byte) (*TenantConfig, error) {
	var spec testSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return nil, err
	}
	if spec.NumNodes <= 0 {
		return nil, fmt.Errorf("num_nodes must be positive")
	}
	paths := make([]*bitset.Set, len(spec.Paths))
	for i, p := range spec.Paths {
		paths[i] = bitset.FromIndices(spec.NumNodes, p...)
	}
	return &TenantConfig{
		NumNodes:    spec.NumNodes,
		K:           spec.K,
		Paths:       paths,
		Connections: spec.Connections,
		Place: func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
			return &PlacementResult{Hosts: []int{int(req.Seed)}}, nil
		},
	}, nil
}

// lineSpec is the 5-node line scenario every test tenant uses: the same
// network testConfig builds for the legacy routes.
func lineSpec() testSpec {
	return testSpec{
		NumNodes: 5,
		K:        1,
		Paths:    [][]int{{0, 1, 2}, {2, 3, 4}},
		Connections: []Connection{
			{Service: 0, Client: 0, Host: 2},
			{Service: 0, Client: 4, Host: 2},
		},
	}
}

func mustJSON(t testing.TB, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scenarioConfig is testConfig: every server has the scenario API, and
// the default scenario is one of its scenarios.
func scenarioConfig() Config { return testConfig() }

// rawReq performs one request and drains the body; goroutine-safe (no
// testing.TB calls).
func rawReq(method, url string, body []byte) (*http.Response, string, error) {
	var rd io.Reader
	if body != nil {
		rd = strings.NewReader(string(body))
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, "", err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, "", err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, "", err
	}
	return resp, string(raw), nil
}

func doReq(t testing.TB, method, url string, body []byte) (*http.Response, string) {
	t.Helper()
	resp, raw, err := rawReq(method, url, body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, raw
}

// TestScenarioLifecycle drives create → list → ingest → diagnosis →
// traces → delete over HTTP and checks the tenant is fully isolated from
// the default one.
func TestScenarioLifecycle(t *testing.T) {
	_, ts := newTestServer(t, scenarioConfig())
	spec := mustJSON(t, lineSpec())

	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/alpha", spec)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create status = %d, body %s", resp.StatusCode, body)
	}
	// Duplicate create conflicts; malformed documents are 422; bad IDs 400.
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/alpha", spec); resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate create status = %d, want 409", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/beta", []byte(`{"num_nodes":0}`)); resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad spec status = %d, want 422", resp.StatusCode)
	}
	if resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/.hidden", spec); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad id status = %d, want 400", resp.StatusCode)
	}

	resp, body = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"alpha"`) || !strings.Contains(body, `"default"`) {
		t.Fatalf("list = %d %s, want alpha and default", resp.StatusCode, body)
	}

	// An outage in alpha must not leak into the default tenant.
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/scenarios/alpha/observations",
		[]byte(`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`))
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, "outage-started") {
		t.Fatalf("scenario ingest = %d %s", resp.StatusCode, body)
	}
	_, body = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/alpha/diagnosis", nil)
	if !strings.Contains(body, `"in_outage":true`) {
		t.Fatalf("alpha diagnosis = %s, want outage", body)
	}
	_, body = doReq(t, http.MethodGet, ts.URL+"/v1/diagnosis", nil)
	if !strings.Contains(body, `"in_outage":false`) {
		t.Fatalf("default diagnosis = %s, want no outage", body)
	}

	// The tenant ring holds only alpha's requests, tagged with the tenant.
	_, body = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/alpha/traces", nil)
	if !strings.Contains(body, `"tenant":"alpha"`) || strings.Contains(body, "/v1/diagnosis\"") {
		t.Fatalf("alpha traces = %s", body)
	}

	resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/scenarios/alpha", nil)
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete status = %d, want 204", resp.StatusCode)
	}
	if resp, _ = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/alpha/diagnosis", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("deleted scenario status = %d, want 404", resp.StatusCode)
	}
	if resp, _ = doReq(t, http.MethodDelete, ts.URL+"/v1/scenarios/alpha", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("double delete status = %d, want 404", resp.StatusCode)
	}
	// Legacy routes are untouched by the scenario lifecycle.
	if resp, _ = doReq(t, http.MethodGet, ts.URL+"/healthz", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after delete = %d", resp.StatusCode)
	}
}

// scenarioScript is one tenant's deterministic observation sequence:
// alternating up/down patterns derived from the scenario index, ending
// mid-outage so the final diagnosis is non-trivial.
func scenarioScript(i int) []string {
	var steps []string
	for step := 1; step <= 6; step++ {
		down := (step + i) % 2 // which connection is down this step
		steps = append(steps, fmt.Sprintf(
			`{"time": %d, "reports": [{"connection": %d, "up": false}, {"connection": %d, "up": true}]}`,
			step, down, 1-down))
	}
	return steps
}

// TestScenarioIsolationConcurrent is the tentpole's acceptance test: one
// server hosts 8 scenarios driven concurrently, and every tenant's
// diagnosis stream must be byte-identical to the same script replayed on
// an isolated single-tenant server. Run with -race, the interleaving
// also proves the sharded registry and per-tenant state are data-race
// free.
func TestScenarioIsolationConcurrent(t *testing.T) {
	const tenants = 8
	_, ts := newTestServer(t, scenarioConfig())
	for i := 0; i < tenants; i++ {
		spec := lineSpec()
		resp, body := doReq(t, http.MethodPut, fmt.Sprintf("%s/v1/scenarios/tenant-%d", ts.URL, i), mustJSON(t, spec))
		if resp.StatusCode != http.StatusCreated {
			t.Fatalf("create tenant-%d: %d %s", i, resp.StatusCode, body)
		}
	}

	// Drive all tenants concurrently, one goroutine per tenant, recording
	// the diagnosis body after every ingest step.
	streams := make([][]string, tenants)
	var wg sync.WaitGroup
	for i := 0; i < tenants; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			base := fmt.Sprintf("%s/v1/scenarios/tenant-%d", ts.URL, i)
			for _, step := range scenarioScript(i) {
				resp, body, err := rawReq(http.MethodPost, base+"/observations", []byte(step))
				if err != nil || resp.StatusCode != http.StatusOK {
					t.Errorf("tenant-%d ingest: %v %s", i, err, body)
					return
				}
				_, diag, err := rawReq(http.MethodGet, base+"/diagnosis", nil)
				if err != nil {
					t.Errorf("tenant-%d diagnosis: %v", i, err)
					return
				}
				streams[i] = append(streams[i], diag)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.Fatal("concurrent ingest failed")
	}

	// Replay each script on a dedicated single-tenant server and compare
	// the diagnosis streams byte for byte.
	for i := 0; i < tenants; i++ {
		_, iso := newTestServer(t, testConfig())
		var want []string
		for _, step := range scenarioScript(i) {
			resp, body := doReq(t, http.MethodPost, iso.URL+"/v1/observations", []byte(step))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("isolated tenant-%d ingest: %d %s", i, resp.StatusCode, body)
			}
			_, diag := doReq(t, http.MethodGet, iso.URL+"/v1/diagnosis", nil)
			want = append(want, diag)
		}
		if len(streams[i]) != len(want) {
			t.Fatalf("tenant-%d stream length %d, want %d", i, len(streams[i]), len(want))
		}
		for step := range want {
			if streams[i][step] != want[step] {
				t.Errorf("tenant-%d step %d diverged from isolated run:\n multi: %s\n solo:  %s",
					i, step, streams[i][step], want[step])
			}
		}
	}
}

// TestScenarioQuota429: a scenario at its per-tenant job quota answers
// 429 while the pool still has room for other tenants.
func TestScenarioQuota429(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 8)
	cfg := scenarioConfig()
	cfg.Workers = 2
	cfg.QueueDepth = 4
	cfg.MaxJobsPerScenario = 1
	cfg.RequestTimeout = 5 * time.Second
	spec := lineSpec()
	// Only the busy tenant's place function parks; quiet's returns at once.
	cfg.BuildScenario = func(id string, raw []byte) (*TenantConfig, error) {
		tc, err := testBuild(id, raw)
		if err != nil {
			return nil, err
		}
		if id == "busy" {
			tc.Place = func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
				started <- struct{}{}
				select {
				case <-release:
				case <-ctx.Done():
				}
				return &PlacementResult{Hosts: []int{0}}, nil
			}
		}
		return tc, nil
	}
	_, ts := newTestServer(t, cfg)
	for _, id := range []string{"busy", "quiet"} {
		if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/"+id, mustJSON(t, spec)); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
		}
	}

	const jobBody = `{"services": [{"clients": [0]}], "alpha": 0.5}`
	go rawReq(http.MethodPost, ts.URL+"/v1/scenarios/busy/placements", []byte(jobBody))
	// The parked job signals once a worker is running it; from then until
	// release it holds busy's single quota slot.
	select {
	case <-started:
	case <-time.After(5 * time.Second):
		t.Fatal("busy tenant's placement job never started")
	}
	resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/scenarios/busy/placements", []byte(jobBody))
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(body, "scenario placement job limit") {
		t.Fatalf("over-quota submit = %d %s, want 429 job limit", resp.StatusCode, body)
	}
	// The quiet tenant still places (its quota and the pool have room).
	resp, body = doReq(t, http.MethodPost, ts.URL+"/v1/scenarios/quiet/placements", []byte(jobBody))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("quiet tenant blocked by busy tenant: %d %s", resp.StatusCode, body)
	}
}

// TestTenantSeriesCap: tenants beyond the cardinality cap share the
// tenant="other" series instead of growing /metrics without bound.
func TestTenantSeriesCap(t *testing.T) {
	cfg := scenarioConfig()
	cfg.TenantSeriesCap = 2 // the default tenant takes one slot at boot
	_, ts := newTestServer(t, cfg)
	spec := mustJSON(t, lineSpec())
	for _, id := range []string{"one", "two", "three"} {
		if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/"+id, spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s: %d %s", id, resp.StatusCode, body)
		}
		doReq(t, http.MethodPost, ts.URL+"/v1/scenarios/"+id+"/observations",
			[]byte(`{"time": 1, "reports": [{"connection": 0, "up": true}]}`))
	}
	_, metricsText := doReq(t, http.MethodGet, ts.URL+"/metrics", nil)
	if !strings.Contains(metricsText, `placemond_tenant_observations_ingested_total{tenant="one"}`) {
		t.Fatalf("first tenant lost its own series:\n%s", metricsText)
	}
	if !strings.Contains(metricsText, `tenant="other"`) {
		t.Fatalf("over-cap tenants not folded into other:\n%s", metricsText)
	}
	if strings.Contains(metricsText, `tenant="three"`) {
		t.Fatalf("cardinality cap leaked tenant three:\n%s", metricsText)
	}
}

// TestRegistryModeWithoutDefault: a server with only the scenario API
// (no legacy Paths/Place) rejects legacy routes with 404 but serves
// scenarios and healthz.
func TestRegistryModeWithoutDefault(t *testing.T) {
	s, err := New(Config{BuildScenario: testBuild})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/diagnosis", nil); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("legacy route without default tenant = %d, want 404", resp.StatusCode)
	}
	resp, body := doReq(t, http.MethodGet, ts.URL+"/healthz", nil)
	if resp.StatusCode != http.StatusOK || !strings.Contains(body, `"scenarios":0`) {
		t.Fatalf("healthz = %d %s", resp.StatusCode, body)
	}
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/solo", mustJSON(t, lineSpec())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create in registry mode: %d %s", resp.StatusCode, body)
	}
	if resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/solo/diagnosis", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("scenario diagnosis in registry mode: %d", resp.StatusCode)
	}
}

// TestMaxScenarios: the registry cap answers 507 and the server stays up.
func TestMaxScenarios(t *testing.T) {
	cfg := scenarioConfig()
	cfg.MaxScenarios = 2 // default tenant occupies one slot
	_, ts := newTestServer(t, cfg)
	spec := mustJSON(t, lineSpec())
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/fits", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create fits: %d %s", resp.StatusCode, body)
	}
	resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/overflow", spec)
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("over-cap create = %d %s, want 507", resp.StatusCode, body)
	}
	// Deleting frees a slot.
	if resp, _ := doReq(t, http.MethodDelete, ts.URL+"/v1/scenarios/fits", nil); resp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete fits: %d", resp.StatusCode)
	}
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/overflow", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create after free: %d %s", resp.StatusCode, body)
	}
}
