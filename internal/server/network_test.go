package server

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"time"

	"repro/internal/wal"
)

// revisingBuild is testBuild whose tenants carry a reviser: the change
// body IS the revised document (a testSpec), validated as testBuild
// validates a document, and the tenant it builds can be revised again.
func revisingBuild(id string, raw []byte) (*TenantConfig, error) {
	tc, err := testBuild(id, raw)
	if err != nil {
		return nil, err
	}
	tc.Revise = func(change []byte) ([]byte, *TenantConfig, error) {
		next, err := revisingBuild(id, change)
		return change, next, err
	}
	return tc, nil
}

// networkConfig is scenarioConfig plus revisable tenants and the
// idempotent-ingest window.
func networkConfig() Config {
	cfg := scenarioConfig()
	cfg.BuildScenario = revisingBuild
	cfg.DedupWindow = 64
	return cfg
}

// wideSpec is a replacement network with a different shape than
// lineSpec: 7 nodes, 3 connections.
func wideSpec() testSpec {
	return testSpec{
		NumNodes: 7,
		K:        1,
		Paths:    [][]int{{0, 1, 3}, {2, 1, 3}, {4, 5, 6}},
		Connections: []Connection{
			{Service: 0, Client: 0, Host: 3},
			{Service: 0, Client: 2, Host: 3},
			{Service: 1, Client: 4, Host: 6},
		},
	}
}

// TestNetworkReplaceLifecycle drives create → ingest → replace → verify
// over HTTP: the scenario keeps its ID and dedup window while monitor
// state restarts against the new network.
func TestNetworkReplaceLifecycle(t *testing.T) {
	_, ts := newTestServer(t, networkConfig())
	base := ts.URL + "/v1/scenarios/net1"

	resp, _ := doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d", resp.StatusCode)
	}
	// Ingest a batch that opens an outage, remembering the exact body.
	batch := []byte(`{"batch_id":"b1","time":1,"reports":[{"connection":0,"up":false}]}`)
	resp, origBody := doReq(t, http.MethodPost, base+"/observations", batch)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, origBody)
	}

	resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}
	var info scenarioInfoJSON
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	// Without a write-ahead log nothing survives a restart.
	if info.ID != "net1" || info.Connections != 3 || info.Persistent {
		t.Fatalf("replace answered %+v", info)
	}
	// The PUT's trace has one stage: the reviser revises the document and
	// builds the scenario from it in one call.
	var stages []string
	for _, rec := range getTraces(t, ts.URL) {
		if rec["method"] == http.MethodPut && rec["path"] == "/v1/scenarios/net1/network" {
			stages = stageNames(rec)
		}
	}
	if !reflect.DeepEqual(stages, []string{"revise"}) {
		t.Fatalf("replace stages = %v, want [revise]", stages)
	}

	// Monitoring restarted: the old outage is gone.
	resp, body = doReq(t, http.MethodGet, base+"/diagnosis", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnosis: %d", resp.StatusCode)
	}
	var diag struct {
		InOutage    bool              `json:"in_outage"`
		Connections []json.RawMessage `json:"connections"`
	}
	if err := json.Unmarshal([]byte(body), &diag); err != nil {
		t.Fatal(err)
	}
	if diag.InOutage || len(diag.Connections) != 3 {
		t.Fatalf("post-replace diagnosis: in_outage=%t conns=%d", diag.InOutage, len(diag.Connections))
	}

	// The dedup window survived: re-delivering the pre-replace batch
	// replays its original response instead of re-applying it against
	// the new (narrower per-path) network.
	resp, replayBody := doReq(t, http.MethodPost, base+"/observations", batch)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Placemond-Replayed") != "true" {
		t.Fatalf("replay: %d replayed=%q", resp.StatusCode, resp.Header.Get("Placemond-Replayed"))
	}
	if replayBody != origBody {
		t.Fatalf("replayed body diverged:\n%s\nvs\n%s", replayBody, origBody)
	}

	// The new shape accepts connections the old one rejected.
	resp, body = doReq(t, http.MethodPost, base+"/observations",
		[]byte(`{"time":2,"reports":[{"connection":2,"up":false}]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace ingest: %d %s", resp.StatusCode, body)
	}
}

// TestNetworkReplaceUnconfigured pins the 501 for a tenant built without
// a ReviseFunc.
func TestNetworkReplaceUnconfigured(t *testing.T) {
	_, ts := newTestServer(t, scenarioConfig())
	base := ts.URL + "/v1/scenarios/net1"
	doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))
	resp, _ := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("unconfigured replace: %d", resp.StatusCode)
	}
}

// TestNetworkReplaceErrors covers the error mapping: unknown scenario,
// malformed change, a busy (draining) scenario, and a body that cannot be
// read, on every route that reads a whole body.
func TestNetworkReplaceErrors(t *testing.T) {
	s, ts := newTestServer(t, networkConfig())
	doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/net1", mustJSON(t, lineSpec()))

	resp, _ := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/ghost/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown scenario: %d", resp.StatusCode)
	}
	resp, _ = doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/net1/network", []byte(`{"num_nodes":0}`))
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("bad change: %d", resp.StatusCode)
	}

	// A draining scenario conflicts rather than replacing.
	tn, _ := s.tenants.Get("net1")
	if !tn.beginDrain() {
		t.Fatal("could not claim drain")
	}
	err := s.ReplaceScenarioNetwork("net1", mustJSON(t, wideSpec()))
	if !errors.Is(err, errScenarioBusy) {
		t.Fatalf("draining replace: %v", err)
	}
	tn.endDrain()
	if err := s.ReplaceScenarioNetwork("net1", mustJSON(t, wideSpec())); err != nil {
		t.Fatalf("replace after endDrain: %v", err)
	}

	// Only a body over the route's limit is 413; one the client stops
	// sending mid-read is 400. The adoption handler is called directly
	// because the route exists only in cluster mode, and the body is
	// read before cluster state is touched.
	oversize := func() io.Reader { return bytes.NewReader(make([]byte, maxMigrateDoc+1)) }
	hungUp := func() io.Reader {
		return io.MultiReader(strings.NewReader(`{"num_nodes":`), iotest.ErrReader(errors.New("client hung up")))
	}
	routes := s.Handler()
	adopt := http.HandlerFunc(s.handleClusterAdopt)
	for _, c := range []struct {
		name, method, path string
		h                  http.Handler
		body               func() io.Reader
		want               int
	}{
		{"network oversize", http.MethodPut, "/v1/scenarios/net1/network", routes, oversize, http.StatusRequestEntityTooLarge},
		{"network hung up", http.MethodPut, "/v1/scenarios/net1/network", routes, hungUp, http.StatusBadRequest},
		{"create oversize", http.MethodPut, "/v1/scenarios/net2", routes, oversize, http.StatusRequestEntityTooLarge},
		{"create hung up", http.MethodPut, "/v1/scenarios/net2", routes, hungUp, http.StatusBadRequest},
		{"ingest oversize", http.MethodPost, "/v1/scenarios/net1/observations", routes, oversize, http.StatusRequestEntityTooLarge},
		{"ingest hung up", http.MethodPost, "/v1/scenarios/net1/observations", routes, hungUp, http.StatusBadRequest},
		{"adopt oversize", http.MethodPost, "/v1/cluster/adopt", adopt, oversize, http.StatusRequestEntityTooLarge},
		{"adopt hung up", http.MethodPost, "/v1/cluster/adopt", adopt, hungUp, http.StatusBadRequest},
	} {
		rec := httptest.NewRecorder()
		c.h.ServeHTTP(rec, httptest.NewRequest(c.method, c.path, c.body()))
		if rec.Code != c.want {
			t.Errorf("%s: %d %s, want %d", c.name, rec.Code, rec.Body, c.want)
		}
	}
}

// failingFS is the OS filesystem until armed; from then on every write
// and sync on a log file fails, as a full or broken disk would.
type failingFS struct {
	wal.OSFS
	armed atomic.Bool
}

func (f *failingFS) Create(name string) (wal.File, error) {
	file, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return failingFile{File: file, fs: f}, nil
}

type failingFile struct {
	wal.File
	fs *failingFS
}

func (f failingFile) Write(p []byte) (int, error) {
	if f.fs.armed.Load() {
		return 0, errors.New("disk on fire")
	}
	return f.File.Write(p)
}

func (f failingFile) Sync() error {
	if f.fs.armed.Load() {
		return errors.New("disk on fire")
	}
	return f.File.Sync()
}

// TestNetworkReplaceRollback pins the persistence-failure path: when the
// revised document cannot be logged, the replacement answers 503 with
// Placemond-Read-Only and the old network keeps serving reads.
func TestNetworkReplaceRollback(t *testing.T) {
	fsys := &failingFS{}
	cfg := walConfig(t.TempDir())
	cfg.BuildScenario = revisingBuild
	cfg.WAL.FS = fsys
	s, ts := newTestServer(t, cfg)
	base := ts.URL + "/v1/scenarios/net1"
	if resp, body := doReq(t, http.MethodPut, base, mustJSON(t, lineSpec())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}

	fsys.armed.Store(true)
	resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Placemond-Read-Only") != "true" {
		t.Fatalf("failed-persist replace: %d %s", resp.StatusCode, body)
	}
	if !s.ReadOnly() {
		t.Fatal("ReadOnly() = false after a failed replacement append")
	}
	// Old shape still serves.
	resp, body = doReq(t, http.MethodGet, base, nil)
	var info scenarioInfoJSON
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || info.Connections != 2 {
		t.Fatalf("post-rollback info: %d %+v", resp.StatusCode, info)
	}
	if resp, body = doReq(t, http.MethodGet, base+"/diagnosis", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("post-rollback diagnosis: %d %s", resp.StatusCode, body)
	}
}

// TestNetworkReplaceWALReplay is the durability parity check: a server
// that created, ingested, replaced, and ingested again must export
// byte-identical state after crash recovery — including the adopted
// dedup window still replaying a pre-replacement batch's original body.
func TestNetworkReplaceWALReplay(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	cfg.BuildScenario = revisingBuild
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	base := ts.URL + "/v1/scenarios/net1"

	doReq(t, http.MethodPut, base, mustJSON(t, lineSpec()))
	batch := []byte(`{"batch_id":"pre","time":1,"reports":[{"connection":0,"up":false}]}`)
	_, preBody := doReq(t, http.MethodPost, base+"/observations", batch)
	resp, body := doReq(t, http.MethodPut, base+"/network", mustJSON(t, wideSpec()))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("replace: %d %s", resp.StatusCode, body)
	}
	resp, body = doReq(t, http.MethodPost, base+"/observations",
		[]byte(`{"batch_id":"post","time":2,"reports":[{"connection":2,"up":false}]}`))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-replace ingest: %d %s", resp.StatusCode, body)
	}
	want := mustExport(t, s1)
	ts.Close()
	s1.Abort() // crash: recovery must come from the raw log

	cfg2 := walConfig(dir)
	cfg2.BuildScenario = revisingBuild
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Abort() }()
	if got := mustExport(t, s2); string(got) != string(want) {
		t.Fatalf("recovered state diverged:\n%s\nvs\n%s", got, want)
	}
	resp, replayBody := doReq(t, http.MethodPost, ts2.URL+"/v1/scenarios/net1/observations", batch)
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Placemond-Replayed") != "true" {
		t.Fatalf("recovered replay: %d replayed=%q", resp.StatusCode, resp.Header.Get("Placemond-Replayed"))
	}
	if replayBody != preBody {
		t.Fatalf("recovered replay body diverged:\n%s\nvs\n%s", replayBody, preBody)
	}
}

// holdSyncFS is the OS filesystem whose first log-file Sync after arming
// blocks until release is closed: it holds one append after its records
// are written and before they are acknowledged.
type holdSyncFS struct {
	wal.OSFS
	armed   atomic.Bool
	held    chan struct{} // closed when the held Sync starts
	release chan struct{}
}

func (f *holdSyncFS) Create(name string) (wal.File, error) {
	file, err := f.OSFS.Create(name)
	if err != nil {
		return nil, err
	}
	return holdSyncFile{File: file, fs: f}, nil
}

type holdSyncFile struct {
	wal.File
	fs *holdSyncFS
}

func (f holdSyncFile) Sync() error {
	if f.fs.armed.CompareAndSwap(true, false) {
		close(f.fs.held)
		<-f.fs.release
	}
	return f.File.Sync()
}

// TestNetworkReplaceAdoptsRacingIngest pins where the replacement adopts
// the old tenant's state. An ingest that resolved the old tenant before
// a PUT …/network began draining it holds the tenant's ingest lock
// through its WAL append and audit entry. The replacement must copy the
// audit ledger after that ingest finishes, so the live ledger keeps the
// batch's diagnosis event, just as boot replay, which applies the batch
// before the update record, rebuilds it.
func TestNetworkReplaceAdoptsRacingIngest(t *testing.T) {
	dir := t.TempDir()
	fsys := &holdSyncFS{held: make(chan struct{}), release: make(chan struct{})}
	cfg := walConfig(dir)
	cfg.BuildScenario = revisingBuild
	cfg.WAL.FS = fsys
	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s1.Handler())
	base := ts.URL + "/v1/scenarios/net1"
	if resp, body := doReq(t, http.MethodPut, base, mustJSON(t, lineSpec())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	old, _ := s1.tenants.Get("net1")
	change := mustJSON(t, wideSpec())

	// The batch opens an outage, so its append logs one diagnosis event.
	fsys.armed.Store(true)
	type answer struct {
		code int
		body string
		err  error
	}
	ingested := make(chan answer, 1)
	go func() {
		resp, body, err := rawReq(http.MethodPost, base+"/observations",
			[]byte(`{"batch_id":"race","time":1,"reports":[{"connection":0,"up":false}]}`))
		if err != nil {
			ingested <- answer{err: err}
			return
		}
		ingested <- answer{code: resp.StatusCode, body: body}
	}()
	<-fsys.held
	replaced := make(chan error, 1)
	go func() { replaced <- s1.ReplaceScenarioNetwork("net1", change) }()
	for !old.isDraining() {
		select {
		case err := <-replaced:
			close(fsys.release)
			t.Fatalf("replace returned before draining the old tenant: %v", err)
		case <-time.After(time.Millisecond):
		}
	}
	// Let the replacement run as far as it can before the held append
	// completes. The fixed code blocks on the ingest lock whatever this
	// wait; the wait only lets an early adoption show.
	time.Sleep(20 * time.Millisecond)
	close(fsys.release)

	a := <-ingested
	if a.err != nil || a.code != http.StatusOK || !strings.Contains(a.body, "outage-started") {
		t.Fatalf("racing ingest: %d %s %v", a.code, a.body, a.err)
	}
	if err := <-replaced; err != nil {
		t.Fatalf("replace: %v", err)
	}
	auditTotal := func(url string) int {
		t.Helper()
		resp, body := doReq(t, http.MethodGet, url, nil)
		var audit struct {
			TotalEvents int `json:"total_events"`
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("audit: %d %s", resp.StatusCode, body)
		}
		if err := json.Unmarshal([]byte(body), &audit); err != nil {
			t.Fatal(err)
		}
		return audit.TotalEvents
	}
	if got := auditTotal(base + "/audit"); got != 1 {
		t.Fatalf("live audit ledger holds %d events, want the racing batch's 1", got)
	}
	want := mustExport(t, s1)
	ts.Close()
	s1.Abort()

	cfg2 := walConfig(dir)
	cfg2.BuildScenario = revisingBuild
	s2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Abort() }()
	if got := mustExport(t, s2); string(got) != string(want) {
		t.Fatalf("recovered state diverged from the live state:\n%s\nvs\n%s", got, want)
	}
	if got := auditTotal(ts2.URL + "/v1/scenarios/net1/audit"); got != 1 {
		t.Fatalf("recovered audit ledger holds %d events, want 1", got)
	}
}
