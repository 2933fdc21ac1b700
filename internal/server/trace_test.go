package server

import (
	"context"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"repro/internal/trace"
)

// getTraces fetches and decodes /debug/traces.
func getTraces(t *testing.T, base string) []map[string]any {
	t.Helper()
	resp, body := getJSON(t, base+"/debug/traces")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/traces = %d", resp.StatusCode)
	}
	raw, ok := body["traces"].([]any)
	if !ok {
		t.Fatalf("no traces array in %v", body)
	}
	out := make([]map[string]any, len(raw))
	for i, r := range raw {
		out[i] = r.(map[string]any)
	}
	return out
}

func stageNames(rec map[string]any) []string {
	var names []string
	stages, _ := rec["stages"].([]any)
	for _, s := range stages {
		names = append(names, s.(map[string]any)["name"].(string))
	}
	return names
}

// TestTraceAdoptedAndRecorded sends an ingest request with a
// client-supplied trace ID and checks the ID is echoed on the response
// and that the ring entry carries the named stages with real timings.
func TestTraceAdoptedAndRecorded(t *testing.T) {
	_, ts := newTestServer(t, testConfig())

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/observations",
		strings.NewReader(`{"batch_id": "b1", "time": 1, "reports": [{"connection": 0, "up": true}]}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "client-chosen-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(trace.Header); got != "client-chosen-id" {
		t.Fatalf("response %s = %q, want the adopted ID", trace.Header, got)
	}

	recs := getTraces(t, ts.URL)
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1: %v", len(recs), recs)
	}
	rec := recs[0]
	if rec["trace_id"] != "client-chosen-id" || rec["path"] != "/v1/observations" {
		t.Fatalf("record = %v", rec)
	}
	if names := stageNames(rec); len(names) != 3 ||
		names[0] != "decode" || names[1] != "dedup" || names[2] != "ingest" {
		t.Fatalf("stages = %v, want [decode dedup ingest]", names)
	}
	if rec["duration_seconds"].(float64) <= 0 {
		t.Fatalf("record duration = %v", rec["duration_seconds"])
	}
}

// TestTraceMintedWhenAbsent: a request without the header still gets a
// fresh ID on the response.
func TestTraceMintedWhenAbsent(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, _ := getJSON(t, ts.URL+"/healthz")
	if id := resp.Header.Get(trace.Header); len(id) != 24 {
		t.Fatalf("minted ID = %q, want 24 hex chars", id)
	}
}

// TestTraceReachesWorkerPool checks the request's trace ID is visible
// inside the PlaceFunc via its context, and that the finished placement
// trace records the pool stages.
func TestTraceReachesWorkerPool(t *testing.T) {
	seen := make(chan string, 1)
	cfg := withPlace(testConfig(), func(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
		seen <- trace.IDFromContext(ctx)
		return &PlacementResult{Hosts: []int{2}}, nil
	})
	_, ts := newTestServer(t, cfg)

	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/placements",
		strings.NewReader(`{"services": [{"clients": [0]}], "alpha": 0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(trace.Header, "pool-trace-id")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("placement status = %d", resp.StatusCode)
	}
	if got := <-seen; got != "pool-trace-id" {
		t.Fatalf("PlaceFunc saw trace ID %q, want pool-trace-id", got)
	}

	recs := getTraces(t, ts.URL)
	if len(recs) != 1 {
		t.Fatalf("ring has %d records, want 1", len(recs))
	}
	names := stageNames(recs[0])
	want := []string{"decode", "queue wait", "place"}
	if len(names) != len(want) {
		t.Fatalf("stages = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stages = %v, want %v", names, want)
		}
	}
}

// TestTraceRingSkipsDebug: reading /debug/traces must not add itself to
// the ring, and TraceBuffer ≤ -1 disables the endpoint entirely.
func TestTraceRingSkipsDebug(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	for i := 0; i < 3; i++ {
		if recs := getTraces(t, ts.URL); len(recs) != 0 {
			t.Fatalf("ring polluted by /debug/traces reads: %v", recs)
		}
	}

	cfg := testConfig()
	cfg.TraceBuffer = -1
	_, ts2 := newTestServer(t, cfg)
	resp, err := http.Get(ts2.URL + "/debug/traces")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("disabled /debug/traces = %d, want 404", resp.StatusCode)
	}
}

// tracesFrom fetches and decodes any traces URL (with query string).
func tracesFrom(t *testing.T, url string) []map[string]any {
	t.Helper()
	resp, body := getJSON(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", url, resp.StatusCode)
	}
	raw, ok := body["traces"].([]any)
	if !ok {
		t.Fatalf("no traces array in %v", body)
	}
	out := make([]map[string]any, len(raw))
	for i, r := range raw {
		out[i] = r.(map[string]any)
	}
	return out
}

// TestTracesLimitAndScenarioFilters: /debug/traces?limit= caps the
// response at the newest N records, ?scenario= keeps only one tenant's
// requests, the two compose, and the per-scenario ring honours ?limit=
// too. Malformed limits are rejected with 400.
func TestTracesLimitAndScenarioFilters(t *testing.T) {
	_, ts := newTestServer(t, scenarioConfig())
	spec := mustJSON(t, lineSpec())
	for _, id := range []string{"alpha", "beta"} {
		if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/"+id, spec); resp.StatusCode != http.StatusCreated {
			t.Fatalf("create %s = %d %s", id, resp.StatusCode, body)
		}
	}
	ingest := func(id string, n int) {
		for i := 0; i < n; i++ {
			resp, body := doReq(t, http.MethodPost, ts.URL+"/v1/scenarios/"+id+"/observations",
				[]byte(fmt.Sprintf(`{"time": %d, "reports": [{"connection": 0, "up": true}]}`, i+1)))
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("ingest %s = %d %s", id, resp.StatusCode, body)
			}
		}
	}
	ingest("alpha", 3)
	ingest("beta", 2)

	all := getTraces(t, ts.URL)
	if len(all) != 7 { // 2 creates + 5 ingests
		t.Fatalf("ring has %d records, want 7", len(all))
	}

	// limit returns exactly the newest N: the two beta ingests.
	limited := tracesFrom(t, ts.URL+"/debug/traces?limit=2")
	if len(limited) != 2 {
		t.Fatalf("limit=2 returned %d records", len(limited))
	}
	for _, rec := range limited {
		if rec["tenant"] != "beta" {
			t.Fatalf("limit=2 returned non-newest record: %v", rec)
		}
	}
	// A limit beyond the ring size is not an error.
	if recs := tracesFrom(t, ts.URL+"/debug/traces?limit=100"); len(recs) != 7 {
		t.Fatalf("limit=100 returned %d records, want 7", len(recs))
	}

	// scenario= keeps only that tenant's records, even mid-ring.
	alpha := tracesFrom(t, ts.URL+"/debug/traces?scenario=alpha")
	if len(alpha) != 3 {
		t.Fatalf("scenario=alpha returned %d records, want 3: %v", len(alpha), alpha)
	}
	for _, rec := range alpha {
		if rec["tenant"] != "alpha" {
			t.Fatalf("scenario=alpha leaked record: %v", rec)
		}
	}
	if recs := tracesFrom(t, ts.URL+"/debug/traces?scenario=nosuch"); len(recs) != 0 {
		t.Fatalf("scenario=nosuch returned %d records, want 0", len(recs))
	}

	// The filters compose: newest single alpha record.
	combo := tracesFrom(t, ts.URL+"/debug/traces?scenario=alpha&limit=1")
	if len(combo) != 1 || combo[0]["tenant"] != "alpha" {
		t.Fatalf("scenario=alpha&limit=1 = %v", combo)
	}

	// The tenant-scoped ring understands limit too.
	if recs := tracesFrom(t, ts.URL+"/v1/scenarios/beta/traces?limit=1"); len(recs) != 1 {
		t.Fatalf("tenant traces limit=1 returned %d records", len(recs))
	}

	// Bad limits are rejected up front on both endpoints.
	for _, url := range []string{
		ts.URL + "/debug/traces?limit=abc",
		ts.URL + "/debug/traces?limit=-1",
		ts.URL + "/v1/scenarios/beta/traces?limit=abc",
	} {
		resp, _, err := rawReq(http.MethodGet, url, nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s = %d, want 400", url, resp.StatusCode)
		}
	}
}
