package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// testConfig serves the 5-node line 0-1-2-3-4 (lineSpec, two monitored
// connections 0→2 and 4→2) as the default scenario, built by testBuild
// like every other test scenario.
func testConfig() Config {
	spec, err := json.Marshal(lineSpec())
	if err != nil {
		panic(err)
	}
	return Config{K: 1, BuildScenario: testBuild, DefaultSpec: spec}
}

// withPlace returns cfg with every scenario's placement jobs running
// place.
func withPlace(cfg Config, place PlaceFunc) Config {
	build := cfg.BuildScenario
	cfg.BuildScenario = func(id string, spec []byte) (*TenantConfig, error) {
		tc, err := build(id, spec)
		if tc != nil {
			tc.Place = place
		}
		return tc, err
	}
	return cfg
}

// defaultTenant returns the hosted default scenario, or nil.
func (s *Server) defaultTenant() *tenant {
	t, _ := s.tenants.Get(DefaultScenario)
	return t
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func getJSON(t *testing.T, url string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	return resp, decodeBody(t, resp)
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	defer resp.Body.Close()
	var m map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		t.Fatalf("decoding %s body: %v", resp.Request.URL, err)
	}
	return m
}

func eventKinds(t *testing.T, body map[string]any) []string {
	t.Helper()
	raw, ok := body["events"].([]any)
	if !ok {
		t.Fatalf("no events array in %v", body)
	}
	kinds := make([]string, len(raw))
	for i, e := range raw {
		kinds[i] = e.(map[string]any)["kind"].(string)
	}
	return kinds
}

// TestLifecycle drives the full ingest → diagnosis-changed → cleared
// sequence over HTTP and checks /v1/diagnosis and /metrics along the way.
func TestLifecycle(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	// t=1: connection 0 (path 0,1,2) goes down → outage starts. The
	// healthy connection 4→2 proves 2,3,4 up, so suspects are {0},{1}.
	resp, body := postJSON(t, ts.URL+"/v1/observations",
		`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %v", resp.StatusCode, body)
	}
	if kinds := eventKinds(t, body); len(kinds) == 0 || kinds[0] != "outage-started" {
		t.Fatalf("kinds = %v, want outage-started first", kinds)
	}

	resp, diag := getJSON(t, ts.URL+"/v1/diagnosis")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnosis status = %d", resp.StatusCode)
	}
	if diag["in_outage"] != true {
		t.Fatalf("in_outage = %v", diag["in_outage"])
	}
	cands := diag["diagnosis"].(map[string]any)["candidates"].([]any)
	if len(cands) != 2 {
		t.Fatalf("candidates = %v, want 2 ({0} and {1})", cands)
	}
	connRows := diag["connections"].([]any)
	if got := connRows[0].(map[string]any)["state"]; got != "down" {
		t.Fatalf("connection 0 state = %v, want down", got)
	}

	// t=2: the other connection drops too → only the shared node 2 can
	// explain both under k=1 → diagnosis-changed.
	_, body = postJSON(t, ts.URL+"/v1/observations",
		`{"time": 2, "reports": [{"connection": 1, "up": false}]}`)
	if kinds := eventKinds(t, body); len(kinds) != 1 || kinds[0] != "diagnosis-changed" {
		t.Fatalf("kinds = %v, want diagnosis-changed", kinds)
	}

	// t=3: everything recovers → outage-cleared.
	_, body = postJSON(t, ts.URL+"/v1/observations",
		`{"time": 3, "reports": [{"connection": 0, "up": true}, {"connection": 1, "up": true}]}`)
	kinds := eventKinds(t, body)
	if kinds[len(kinds)-1] != "outage-cleared" {
		t.Fatalf("kinds = %v, want outage-cleared last", kinds)
	}
	_, diag = getJSON(t, ts.URL+"/v1/diagnosis")
	if diag["in_outage"] != false {
		t.Fatalf("still in outage after recovery")
	}

	// The registry saw all of it.
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	raw, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"placemond_observations_ingested_total 5",
		`placemond_events_total{kind="outage-started"} 1`,
		// 3 changes: conn1's up report refines the t=1 batch's initial
		// diagnosis, the t=2 drop shrinks it to {2}, and conn0's recovery
		// at t=3 flips suspicion to {3},{4} before the all-clear.
		`placemond_events_total{kind="diagnosis-changed"} 3`,
		`placemond_events_total{kind="outage-cleared"} 1`,
		"placemond_outage 0",
		`placemond_http_requests_total{code="200",route="/v1/observations"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	cases := []struct {
		name, url, body string
		want            int
	}{
		{"malformed JSON", "/v1/observations", `{"time": 1,`, http.StatusBadRequest},
		{"unknown field", "/v1/observations", `{"when": 1, "reports": []}`, http.StatusBadRequest},
		{"empty batch", "/v1/observations", `{"time": 1, "reports": []}`, http.StatusBadRequest},
		{"connection out of range", "/v1/observations",
			`{"time": 1, "reports": [{"connection": 99, "up": false}]}`, http.StatusBadRequest},
		{"negative connection", "/v1/observations",
			`{"time": 1, "reports": [{"connection": -1, "up": false}]}`, http.StatusBadRequest},
		{"trailing garbage", "/v1/observations",
			`{"time": 1, "reports": [{"connection": 0, "up": true}]} extra`, http.StatusBadRequest},
		{"placement no services", "/v1/placements", `{"services": [], "alpha": 0.5}`, http.StatusBadRequest},
		{"placement clientless service", "/v1/placements",
			`{"services": [{"name": "s", "clients": []}], "alpha": 0.5}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.url, tc.body)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d (body %v)", resp.StatusCode, tc.want, body)
			}
			if body["error"] == "" {
				t.Fatalf("no error message in %v", body)
			}
		})
	}

	// A rejected batch must not half-apply: connection 0 stayed unknown.
	_, diag := getJSON(t, ts.URL+"/v1/diagnosis")
	if diag["in_outage"] != false {
		t.Fatalf("rejected batch mutated the monitor")
	}

	// Wrong method → 405 from the pattern mux.
	resp, err := http.Get(ts.URL + "/v1/observations")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/observations = %d, want 405", resp.StatusCode)
	}
}

// TestQueueFull saturates the single worker and the one-slot queue, then
// checks that further jobs are rejected with 429 without blocking. The
// queue is clogged deterministically: once any request occupies the slot
// (even one whose client timed out), the worker — blocked on the running
// job — never frees it, so every later submission must bounce.
func TestQueueFull(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	cfg := testConfig()
	cfg.Workers = 1
	cfg.QueueDepth = 1
	cfg.RequestTimeout = 200 * time.Millisecond
	cfg = withPlace(cfg, func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
		started <- struct{}{}
		<-release
		return &PlacementResult{Hosts: []int{2}}, nil
	})
	s, ts := newTestServer(t, cfg)
	t.Cleanup(func() { close(release) })
	t.Cleanup(func() { close(started) })

	const jobBody = `{"services": [{"clients": [0]}], "alpha": 0.5}`
	// Occupy the worker.
	go func() {
		resp, err := http.Post(ts.URL+"/v1/placements", "application/json", strings.NewReader(jobBody))
		if err == nil {
			resp.Body.Close()
		}
	}()
	<-started

	// Poll: requests land in the queue slot (and eventually 504) until
	// it is taken, after which 429 is the only possible answer.
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, body := postJSON(t, ts.URL+"/v1/placements", jobBody)
		if resp.StatusCode == http.StatusTooManyRequests {
			if resp.Header.Get("Retry-After") == "" {
				t.Errorf("429 without Retry-After")
			}
			if !strings.Contains(fmt.Sprint(body["error"]), "queue full") {
				t.Errorf("429 body = %v", body)
			}
			break
		}
		if resp.StatusCode != http.StatusGatewayTimeout {
			t.Fatalf("unexpected status %d (body %v)", resp.StatusCode, body)
		}
		if time.Now().After(deadline) {
			t.Fatalf("never saw 429")
		}
	}
	// The rejection is visible on /metrics too.
	if got := s.Registry().Counter("placemond_placement_jobs_total",
		"", "status", "rejected").Value(); got < 1 {
		t.Errorf("rejected counter = %v, want ≥ 1", got)
	}
}

func TestPlacementPanicIsContained(t *testing.T) {
	cfg := withPlace(testConfig(), func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
		panic("poisoned instance")
	})
	_, ts := newTestServer(t, cfg)
	resp, body := postJSON(t, ts.URL+"/v1/placements", `{"services": [{"clients": [0]}]}`)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500 (body %v)", resp.StatusCode, body)
	}
	// The daemon survived: the next request works.
	resp, _ = getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz after panic = %d", resp.StatusCode)
	}
}

func TestHandlerPanicRecovered(t *testing.T) {
	s, err := New(testConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.withObservability(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
}

func TestRequestTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.RequestTimeout = 50 * time.Millisecond
	block := make(chan struct{})
	cfg = withPlace(cfg, func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
		<-block
		return &PlacementResult{}, nil
	})
	_, ts := newTestServer(t, cfg)
	defer close(block)
	resp, body := postJSON(t, ts.URL+"/v1/placements", `{"services": [{"clients": [0]}]}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504 (body %v)", resp.StatusCode, body)
	}
}

func TestHealthzAndPprof(t *testing.T) {
	cfg := testConfig()
	cfg.EnablePprof = true
	_, ts := newTestServer(t, cfg)
	resp, body := getJSON(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK || body["status"] != "ok" {
		t.Fatalf("healthz = %d %v", resp.StatusCode, body)
	}
	if body["connections"] != float64(2) {
		t.Fatalf("connections = %v, want 2", body["connections"])
	}
	presp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	presp.Body.Close()
	if presp.StatusCode != http.StatusOK {
		t.Fatalf("pprof = %d, want 200", presp.StatusCode)
	}
}

func TestPprofDisabledByDefault(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("pprof without EnablePprof = %d, want 404", resp.StatusCode)
	}
}

// TestGracefulShutdown cancels the serve context while a placement job is
// in flight and checks the request still completes before Serve returns.
func TestGracefulShutdown(t *testing.T) {
	inFlight := make(chan struct{})
	release := make(chan struct{})
	cfg := withPlace(testConfig(), func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
		close(inFlight)
		<-release
		return &PlacementResult{Hosts: []int{2}}, nil
	})
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ctx, ln) }()

	url := "http://" + ln.Addr().String()
	respCh := make(chan *http.Response, 1)
	go func() {
		resp, err := http.Post(url+"/v1/placements", "application/json",
			strings.NewReader(`{"services": [{"clients": [0]}]}`))
		if err != nil {
			t.Error(err)
			respCh <- nil
			return
		}
		respCh <- resp
	}()

	<-inFlight // the job is running
	cancel()   // begin graceful drain
	// Serve must not return while the request is in flight.
	select {
	case err := <-serveDone:
		t.Fatalf("Serve returned %v before in-flight request finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)

	resp := <-respCh
	if resp == nil {
		t.Fatal("in-flight request failed during drain")
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request status = %d, want 200", resp.StatusCode)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("Serve = %v, want nil after clean drain", err)
	}
	// The listener is really closed.
	if _, err := http.Get(url + "/healthz"); err == nil {
		t.Fatalf("server still accepting after shutdown")
	}
}

// TestConfigValidation: New refuses a server without a builder, and a
// default scenario whose built state is unusable.
func TestConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.BuildScenario = nil
	if _, err := New(cfg); err == nil {
		t.Fatalf("nil BuildScenario accepted")
	}
	if _, err := New(withPlace(testConfig(), nil)); err == nil {
		t.Fatalf("nil Place accepted")
	}
	cfg = testConfig()
	spec := lineSpec()
	spec.Connections = spec.Connections[:1]
	cfg.DefaultSpec = mustJSON(t, spec)
	if _, err := New(cfg); err == nil {
		t.Fatalf("paths/connections mismatch accepted")
	}
	cfg.DefaultSpec = mustJSON(t, testSpec{NumNodes: 5, K: 1})
	if _, err := New(cfg); err == nil {
		t.Fatalf("no connections accepted")
	}
}
