package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/wal"
)

// tracePaths returns the request path of every trace record url serves.
func tracePaths(t *testing.T, url string) []string {
	t.Helper()
	resp, body := getJSON(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s = %d", url, resp.StatusCode)
	}
	raw, _ := body["traces"].([]any)
	paths := make([]string, len(raw))
	for i, r := range raw {
		paths[i], _ = r.(map[string]any)["path"].(string)
	}
	return paths
}

// TestLegacyRoutesAreAliases: a legacy route resolves the default scenario
// exactly as its /v1/scenarios/default/... twin does. Its trace names the
// scenario, so it lands in the scenario's ring and in the filtered global
// ring, and a draining default answers 409 on both route families.
func TestLegacyRoutesAreAliases(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	if resp, body := postJSON(t, ts.URL+"/v1/observations",
		`{"time": 1, "reports": [{"connection": 0, "up": true}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	for _, url := range []string{"/v1/scenarios/default/traces", "/debug/traces?scenario=default"} {
		if paths := tracePaths(t, ts.URL+url); !slices.Contains(paths, "/v1/observations") {
			t.Errorf("%s lists %v, want the legacy ingest among them", url, paths)
		}
	}

	if !s.defaultTenant().beginDrain() {
		t.Fatal("could not claim drain")
	}
	for _, rq := range []struct{ method, path, body string }{
		{http.MethodPost, "/v1/observations", `{"time": 2, "reports": [{"connection": 0, "up": false}]}`},
		{http.MethodPost, "/v1/scenarios/default/observations", `{"time": 2, "reports": [{"connection": 0, "up": false}]}`},
		{http.MethodGet, "/v1/diagnosis", ""},
		{http.MethodGet, "/v1/scenarios/default/diagnosis", ""},
	} {
		var body []byte
		if rq.body != "" {
			body = []byte(rq.body)
		}
		if resp, raw := doReq(t, rq.method, ts.URL+rq.path, body); resp.StatusCode != http.StatusConflict {
			t.Errorf("%s %s while draining = %d %s, want 409", rq.method, rq.path, resp.StatusCode, raw)
		}
	}
}

// TestScenarioPersistentMeansWAL: "persistent" says whether the scenario
// survives a restart, which only a write-ahead log provides.
func TestScenarioPersistentMeansWAL(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want bool
	}{
		{"in memory", scenarioConfig(), false},
		{"write-ahead log", walConfig(t.TempDir()), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, ts := newTestServer(t, tc.cfg)
			resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/mem", mustJSON(t, lineSpec()))
			var info scenarioInfoJSON
			if err := json.Unmarshal([]byte(body), &info); err != nil {
				t.Fatal(err)
			}
			if resp.StatusCode != http.StatusCreated || info.Persistent != tc.want {
				t.Fatalf("create = %d %s, want persistent %t", resp.StatusCode, body, tc.want)
			}
		})
	}
}

// TestDefaultBootRule: a logged default is kept when the boot document
// matches it, refused when the document differs, and seeded afresh at the
// boot after it was deleted.
func TestDefaultBootRule(t *testing.T) {
	dir := t.TempDir()
	s1, ts1 := newTestServer(t, walConfig(dir))
	if resp, body := postJSON(t, ts1.URL+"/v1/observations",
		`{"batch_id": "b1", "time": 1, "reports": [{"connection": 0, "up": false}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	want := mustExport(t, s1)
	ts1.Close()
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	// Same document: the logged default serves on, outage and all.
	s2, err := New(walConfig(dir))
	if err != nil {
		t.Fatalf("reboot with the logged document: %v", err)
	}
	if got := mustExport(t, s2); !bytes.Equal(got, want) {
		t.Fatalf("reboot state diverged:\n got %s\nwant %s", got, want)
	}
	s2.Close()

	// A different document: refuse to boot, naming the scenario.
	cfg := walConfig(dir)
	cfg.DefaultSpec = mustJSON(t, wideSpec())
	if _, err := New(cfg); err == nil || !strings.Contains(err.Error(), `"default"`) {
		t.Fatalf("reboot with another document = %v, want a refusal naming \"default\"", err)
	}

	// Without a boot document the logged default serves; delete it...
	cfg = walConfig(dir)
	cfg.DefaultSpec = nil
	s3, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.RemoveScenario(context.Background(), DefaultScenario); err != nil {
		t.Fatal(err)
	}
	s3.Close()

	// ...and the next boot with a document seeds a fresh one.
	s4, ts4 := newTestServer(t, walConfig(dir))
	if ids := s4.ScenarioIDs(); !reflect.DeepEqual(ids, []string{DefaultScenario}) {
		t.Fatalf("scenarios after reseed = %v", ids)
	}
	if _, diag := getJSON(t, ts4.URL+"/v1/diagnosis"); diag["in_outage"] != false {
		t.Fatalf("reseeded default carries old state: %v", diag)
	}
}

// TestBootFromFlagBuiltDefaultLog: a log written by a placemond that built
// its default tenant from boot flags still boots. That log's snapshot holds
// default's monitor state without a document, and its tail an observation
// for default without a create record. Both are skipped with a warning, and
// the boot document seeds a fresh default.
func TestBootFromFlagBuiltDefaultLog(t *testing.T) {
	// The old shape: an outage in default's monitor state, document dropped.
	old, ts := newTestServer(t, testConfig())
	if resp, body := postJSON(t, ts.URL+"/v1/observations",
		`{"time": 1, "reports": [{"connection": 0, "up": false}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}
	var st walState
	if err := json.Unmarshal(mustExport(t, old), &st); err != nil {
		t.Fatal(err)
	}
	st.Scenarios[DefaultScenario].Spec = nil

	dir := t.TempDir()
	l, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Compact(mustJSON(t, st)); err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append(wal.TypeObservations, mustJSON(t, walObservations{
		Scenario: DefaultScenario, BatchID: "old-1", Time: 2, Conns: []int{1}, Ups: []bool{false},
	})); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	var logs bytes.Buffer
	cfg := walConfig(dir)
	cfg.Logger = slog.New(slog.NewTextHandler(&logs, &slog.HandlerOptions{Level: slog.LevelWarn}))
	s, err := New(cfg)
	if err != nil {
		t.Fatalf("boot over the old log: %v", err)
	}
	for _, warning := range []string{"WAL snapshot scenario without a document skipped", "observations for unknown scenario skipped"} {
		if !strings.Contains(logs.String(), warning) {
			t.Errorf("boot log lacks %q:\n%s", warning, logs.String())
		}
	}
	def := s.defaultTenant()
	if def == nil || !bytes.Equal(def.spec, cfg.DefaultSpec) {
		t.Fatalf("default not seeded from the boot document: %+v", def)
	}
	if def.mon.InOutage() {
		t.Fatal("old monitor state was grafted onto the fresh default")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Check(dir, false); err != nil {
		t.Fatalf("fsck after boot over the old log: %v", err)
	}
}

// TestDefaultMigratesInCluster: in a WAL cluster where every node boots
// with the same document, only default's ring owner seeds it. It migrates
// away like any scenario, the source's legacy routes then forward to the
// target, and the restarted source does not seed it again.
func TestDefaultMigratesInCluster(t *testing.T) {
	walRoot := t.TempDir()
	nodeCfg := func(i int) Config { return walConfig(filepath.Join(walRoot, fmt.Sprintf("node-%d", i))) }
	nodes := startClusterNodes(t, 2, false, nodeCfg)
	ms, err := cluster.NewFromMembers(nodes[0].id, nodes[0].members)
	if err != nil {
		t.Fatal(err)
	}
	src, dst := 0, 1
	if ms.Owner(DefaultScenario).ID == nodes[1].id {
		src, dst = 1, 0
	}
	if ids := nodes[src].srv.ScenarioIDs(); !reflect.DeepEqual(ids, []string{DefaultScenario}) {
		t.Fatalf("ring owner hosts %v, want [default]", ids)
	}
	if ids := nodes[dst].srv.ScenarioIDs(); len(ids) != 0 {
		t.Fatalf("non-owner seeded %v", ids)
	}
	legacy := func(node int) *http.Response {
		return noFollow(t, http.MethodGet, nodes[node].ts.URL+"/v1/diagnosis", nil)
	}
	if resp := legacy(dst); resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get(OwnerHeader) != nodes[src].id {
		t.Fatalf("non-owner legacy route = %d owner %q, want 307 to %s", resp.StatusCode, resp.Header.Get(OwnerHeader), nodes[src].id)
	}
	if resp, body := postJSON(t, nodes[src].ts.URL+"/v1/observations",
		`{"batch_id": "m1", "time": 1, "reports": [{"connection": 0, "up": false}]}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest = %d %v", resp.StatusCode, body)
	}

	if resp, body := postJSON(t, nodes[src].ts.URL+"/v1/scenarios/default/migrate",
		fmt.Sprintf(`{"target": %q}`, nodes[dst].id)); resp.StatusCode != http.StatusOK {
		t.Fatalf("migrate default = %d %v", resp.StatusCode, body)
	}
	if resp, diag := getJSON(t, nodes[dst].ts.URL+"/v1/diagnosis"); resp.StatusCode != http.StatusOK || diag["in_outage"] != true {
		t.Fatalf("target diagnosis = %d %v, want the migrated outage", resp.StatusCode, diag)
	}
	if resp := legacy(src); resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get(OwnerHeader) != nodes[dst].id {
		t.Fatalf("source legacy route = %d owner %q, want 307 to %s", resp.StatusCode, resp.Header.Get(OwnerHeader), nodes[dst].id)
	}

	// The source reboots with the same document: the logged migration
	// keeps default away.
	nodes[src].stop()
	nodes[src].start(t, nil, false, false, nodeCfg(src))
	if ids := nodes[src].srv.ScenarioIDs(); len(ids) != 0 {
		t.Fatalf("restarted source seeded %v again", ids)
	}
	if resp := legacy(src); resp.StatusCode != http.StatusTemporaryRedirect || resp.Header.Get(OwnerHeader) != nodes[dst].id {
		t.Fatalf("restarted source legacy route = %d owner %q, want 307 to %s", resp.StatusCode, resp.Header.Get(OwnerHeader), nodes[dst].id)
	}
}
