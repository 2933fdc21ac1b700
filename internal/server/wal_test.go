package server

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/wal"
)

// walConfig is scenarioConfig persisting through a write-ahead log in
// dir, with the idempotent-ingest window on.
func walConfig(dir string) Config {
	cfg := scenarioConfig()
	cfg.DedupWindow = 64
	cfg.WAL = &WALConfig{Dir: dir, CompactEvery: -1}
	return cfg
}

// walOp is one step of the deterministic crash-matrix workload.
type walOp struct {
	method string
	path   string
	body   []byte
	// retryOK lists extra statuses a re-driven (retried) op may answer:
	// a create that was logged but never acknowledged replays as 409, a
	// delete as 404. Idempotent outcomes, not failures.
	retryOK []int
}

func obsOp(t testing.TB, path, batchID string, tm float64, up bool) walOp {
	t.Helper()
	body := mustJSON(t, map[string]any{
		"batch_id": batchID,
		"time":     tm,
		"reports": []map[string]any{
			{"connection": 0, "up": up},
			{"connection": 1, "up": up},
		},
	})
	return walOp{method: http.MethodPost, path: path, body: body}
}

// walWorkload builds the op sequence every crash-matrix life drives:
// scenario lifecycle plus interleaved default/scenario ingest with
// alternating outages, so the log carries every record type.
func walWorkload(t testing.TB) []walOp {
	t.Helper()
	spec := mustJSON(t, lineSpec())
	ops := []walOp{
		{method: http.MethodPut, path: "/v1/scenarios/alpha", body: spec,
			retryOK: []int{http.StatusConflict}},
		{method: http.MethodPut, path: "/v1/scenarios/beta", body: spec,
			retryOK: []int{http.StatusConflict}},
	}
	for i := 0; i < 8; i++ {
		up := i%2 == 1 // down, up, down, ... — every batch emits events
		ops = append(ops,
			obsOp(t, "/v1/scenarios/alpha/observations", fmt.Sprintf("a-%d", i), float64(i+1), up),
			obsOp(t, "/v1/observations", fmt.Sprintf("d-%d", i), float64(i+1), up),
		)
	}
	ops = append(ops, walOp{method: http.MethodDelete, path: "/v1/scenarios/beta",
		retryOK: []int{http.StatusNotFound}})
	for i := 8; i < 12; i++ {
		ops = append(ops,
			obsOp(t, "/v1/scenarios/alpha/observations", fmt.Sprintf("a-%d", i), float64(i+1), i%2 == 1))
	}
	return ops
}

// driveOps sends ops[from:] in order, recording each acknowledged op's
// body in bodies. It returns the index of the first op refused with 503
// (the daemon crashed into read-only mode), or len(ops) when every op
// was acknowledged. A retried op answering one of its retryOK statuses
// counts as acknowledged.
func driveOps(t testing.TB, base string, ops []walOp, from int, bodies map[int]string) int {
	t.Helper()
	for i := from; i < len(ops); i++ {
		op := ops[i]
		resp, raw, err := rawReq(op.method, base+op.path, op.body)
		if err != nil {
			t.Fatalf("op %d %s %s: %v", i, op.method, op.path, err)
		}
		if resp.StatusCode == http.StatusServiceUnavailable {
			if resp.Header.Get("Placemond-Read-Only") != "true" {
				t.Fatalf("op %d: 503 without Placemond-Read-Only header", i)
			}
			return i
		}
		okStatus := resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusCreated ||
			resp.StatusCode == http.StatusNoContent
		for _, code := range op.retryOK {
			if from > 0 && resp.StatusCode == code {
				okStatus = true
			}
		}
		if !okStatus {
			t.Fatalf("op %d %s %s: status %d body %s", i, op.method, op.path, resp.StatusCode, raw)
		}
		if bodies != nil && resp.StatusCode == http.StatusOK && op.method == http.MethodPost {
			bodies[i] = raw
		}
	}
	return len(ops)
}

func mustExport(t testing.TB, s *Server) []byte {
	t.Helper()
	b, err := s.StateExport()
	if err != nil {
		t.Fatalf("StateExport: %v", err)
	}
	return b
}

// TestWALServerRecoveryRoundTrip drives the workload over HTTP, restarts
// the daemon twice — once from the raw log, once from a compaction
// snapshot — and checks every restart rebuilds byte-identical state,
// including a dedup window that still replays the original bodies.
func TestWALServerRecoveryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	ops := walWorkload(t)
	bodies := map[int]string{}

	s1, err := New(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(s1.Handler())
	if n := driveOps(t, ts1.URL, ops, 0, bodies); n != len(ops) {
		t.Fatalf("workload stopped at op %d", n)
	}
	want := mustExport(t, s1)
	if err := s1.VerifyIncremental(); err != nil {
		t.Fatalf("incremental diagnosis diverged after workload: %v", err)
	}
	ts1.Close()
	// Abort, not Close: the first restart must recover from the raw log
	// tail with no snapshot to lean on.
	s1.Abort()

	s2, err := New(walConfig(dir))
	if err != nil {
		t.Fatalf("recovery from log tail: %v", err)
	}
	ts2 := httptest.NewServer(s2.Handler())
	if got := mustExport(t, s2); string(got) != string(want) {
		t.Fatalf("state after log-tail recovery diverged:\n got %s\nwant %s", got, want)
	}
	if err := s2.VerifyIncremental(); err != nil {
		t.Fatalf("incremental diagnosis diverged after log-tail recovery: %v", err)
	}
	// A retried batch replays the original response byte for byte.
	lastObs := len(ops) - 1
	resp, raw, err := rawReq(ops[lastObs].method, ts2.URL+ops[lastObs].path, ops[lastObs].body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Header.Get("Placemond-Replayed") != "true" {
		t.Fatalf("duplicate batch after restart not replayed (status %d)", resp.StatusCode)
	}
	if raw != bodies[lastObs] {
		t.Fatalf("replayed body diverged:\n got %s\nwant %s", raw, bodies[lastObs])
	}
	ts2.Close()
	// Graceful close folds everything into a snapshot; the second restart
	// recovers from it.
	if err := s2.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	s3, err := New(walConfig(dir))
	if err != nil {
		t.Fatalf("recovery from snapshot: %v", err)
	}
	defer s3.Close()
	if got := mustExport(t, s3); string(got) != string(want) {
		t.Fatalf("state after snapshot recovery diverged:\n got %s\nwant %s", got, want)
	}
	if _, err := wal.Check(dir, false); err != nil {
		t.Fatalf("fsck after round trip: %v", err)
	}
}

// TestCrashServerMatrix is the end-to-end half of the crash harness:
// seeded byte budgets kill the filesystem under the serving stack —
// mid-append, mid-rotation, mid-compaction — under each fsyncing sync
// mode, and after each kill a fresh daemon must recover, finish the
// workload via client retries, and end with state byte-identical to a
// never-crashed reference.
func TestCrashServerMatrix(t *testing.T) {
	ops := walWorkload(t)

	// Reference life: no crash. Its responses are the oracle and its FS
	// cost sizes the seeded budgets. Neither depends on the sync mode, so
	// one reference serves every mode.
	refDir := t.TempDir()
	refFS := wal.NewCrashFSBudget(wal.OSFS{}, 1<<60)
	refCfg := walConfig(refDir)
	refCfg.WAL.FS = refFS
	refSrv, err := New(refCfg)
	if err != nil {
		t.Fatal(err)
	}
	refBodies := map[int]string{}
	refTS := httptest.NewServer(refSrv.Handler())
	if n := driveOps(t, refTS.URL, ops, 0, refBodies); n != len(ops) {
		t.Fatalf("reference stopped at op %d", n)
	}
	want := mustExport(t, refSrv)
	refTS.Close()
	refSrv.Abort()
	cost := refFS.Spent()
	if cost <= 0 {
		t.Fatal("reference consumed no budget")
	}

	modes := []struct {
		name         string
		segmentBytes int64
		compactEvery int
	}{
		{"append", 0, -1},
		{"rotate", 4 << 10, -1},
		{"compact", 4 << 10, 8},
	}
	const seeds = 5
	for _, m := range modes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			// Both -wal-sync names of the durable mode.
			for _, name := range []string{"always", "group"} {
				t.Run(name, func(t *testing.T) {
					syncMode, err := wal.ParseSyncMode(name)
					if err != nil {
						t.Fatal(err)
					}
					rng := rand.New(rand.NewSource(int64(len(m.name)) * 7919))
					for seed := 0; seed < seeds; seed++ {
						budget := 1 + rng.Int63n(cost)
						cfg := walConfig(t.TempDir())
						cfg.WAL.Sync = syncMode
						cfg.WAL.SegmentBytes = m.segmentBytes
						cfg.WAL.CompactEvery = m.compactEvery
						crashServerLife(t, cfg, budget, ops, refBodies, want)
					}
				})
			}
		})
	}
}

// crashServerLife serves ops from a daemon on cfg until the byte budget
// kills its filesystem, then recovers a fresh daemon from the same log,
// retries the unacknowledged tail, and checks the result against the
// never-crashed reference's responses and state export.
func crashServerLife(t *testing.T, cfg Config, budget int64, ops []walOp, refBodies map[int]string, want []byte) {
	t.Helper()
	dir := cfg.WAL.Dir

	// First life: crash-injected. New itself may die mid-boot.
	crashCfg := cfg
	crashWAL := *cfg.WAL
	crashWAL.FS = wal.NewCrashFSBudget(wal.OSFS{}, budget)
	crashCfg.WAL = &crashWAL
	stopped := 0
	ackBodies := map[int]string{}
	if srv, err := New(crashCfg); err == nil {
		ts := httptest.NewServer(srv.Handler())
		stopped = driveOps(t, ts.URL, ops, 0, ackBodies)
		ts.Close()
		srv.Abort()
	}
	// Everything acknowledged before the kill matched the reference byte
	// for byte.
	for i, body := range ackBodies {
		if body != refBodies[i] {
			t.Fatalf("budget %d: acked op %d body diverged from reference", budget, i)
		}
	}

	// Second life: injection lifted; recovery must succeed and the
	// retried tail must complete.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("budget %d: recovery refused: %v", budget, err)
	}
	ts2 := httptest.NewServer(srv2.Handler())
	if n := driveOps(t, ts2.URL, ops, stopped, nil); n != len(ops) {
		t.Fatalf("budget %d: retried workload stopped again at op %d", budget, n)
	}
	if got := mustExport(t, srv2); string(got) != string(want) {
		t.Fatalf("budget %d: recovered state diverged from never-crashed reference:\n got %s\nwant %s",
			budget, got, want)
	}
	if err := srv2.VerifyIncremental(); err != nil {
		t.Fatalf("budget %d: incremental diagnosis diverged after recovery: %v", budget, err)
	}
	// A post-crash duplicate of an acknowledged batch replays the exact
	// original response.
	for i := stopped - 1; i >= 0; i-- {
		if _, isObs := ackBodies[i]; !isObs {
			continue
		}
		resp, raw, err := rawReq(ops[i].method, ts2.URL+ops[i].path, ops[i].body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.Header.Get("Placemond-Replayed") != "true" {
			t.Fatalf("budget %d: duplicate of acked op %d not replayed (status %d)", budget, i, resp.StatusCode)
		}
		if raw != refBodies[i] {
			t.Fatalf("budget %d: replayed body for op %d diverged from reference", budget, i)
		}
		break
	}
	ts2.Close()
	if err := srv2.Close(); err != nil {
		t.Fatalf("budget %d: close after recovery: %v", budget, err)
	}
	if _, err := wal.Check(dir, false); err != nil {
		t.Fatalf("budget %d: fsck after recovery: %v", budget, err)
	}
}

// TestWALReadOnlyDegradation exhausts the filesystem mid-flight and
// checks the daemon degrades instead of dying: mutations answer 503 with
// Placemond-Read-Only, reads keep serving, and the mode is sticky.
func TestWALReadOnlyDegradation(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir)
	// Enough budget to boot and accept a few batches, never all of them.
	cfg.WAL.FS = wal.NewCrashFSBudget(wal.OSFS{}, 3000)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Abort()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	sawReadOnly := false
	for i := 0; i < 100 && !sawReadOnly; i++ {
		op := obsOp(t, "/v1/observations", fmt.Sprintf("ro-%d", i), float64(i+1), i%2 == 0)
		resp, _, err := rawReq(op.method, ts.URL+op.path, op.body)
		if err != nil {
			t.Fatal(err)
		}
		switch resp.StatusCode {
		case http.StatusOK:
		case http.StatusServiceUnavailable:
			if resp.Header.Get("Placemond-Read-Only") != "true" {
				t.Fatal("503 without Placemond-Read-Only header")
			}
			sawReadOnly = true
		default:
			t.Fatalf("ingest %d: status %d", i, resp.StatusCode)
		}
	}
	if !sawReadOnly {
		t.Fatal("budget never exhausted: read-only mode never entered")
	}
	if !srv.ReadOnly() {
		t.Fatal("ReadOnly() = false after a refused mutation")
	}

	// Sticky: scenario mutations are refused too.
	resp, _, err := rawReq(http.MethodPut, ts.URL+"/v1/scenarios/late", mustJSON(t, lineSpec()))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable || resp.Header.Get("Placemond-Read-Only") != "true" {
		t.Fatalf("scenario create in read-only mode: status %d", resp.StatusCode)
	}
	// Reads and placements still serve.
	if resp, _, err := rawReq(http.MethodGet, ts.URL+"/v1/diagnosis", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("diagnosis in read-only mode: status %d err %v", resp.StatusCode, err)
	}
	if resp, _, err := rawReq(http.MethodGet, ts.URL+"/healthz", nil); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz in read-only mode: status %d err %v", resp.StatusCode, err)
	}
}

// TestWALAuditEndpoint checks the hash-chained audit ledger end to end:
// events pinned to WAL records, a verified chain while intact, and loud
// detection once a bit flips on disk.
func TestWALAuditEndpoint(t *testing.T) {
	dir := t.TempDir()
	srv, err := New(walConfig(dir))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())

	spec := mustJSON(t, lineSpec())
	if resp, body := doReq(t, http.MethodPut, ts.URL+"/v1/scenarios/alpha", spec); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	for i := 0; i < 6; i++ {
		op := obsOp(t, "/v1/scenarios/alpha/observations", fmt.Sprintf("au-%d", i), float64(i+1), i%2 == 1)
		if resp, body := doReq(t, op.method, ts.URL+op.path, op.body); resp.StatusCode != http.StatusOK {
			t.Fatalf("ingest %d: %d %s", i, resp.StatusCode, body)
		}
	}

	var audit struct {
		Scenario    string       `json:"scenario"`
		TotalEvents int          `json:"total_events"`
		Events      []auditEvent `json:"events"`
		Chain       struct {
			Verified bool   `json:"verified"`
			HeadSeq  uint64 `json:"head_seq"`
			HeadHash string `json:"head_hash"`
			Error    string `json:"error,omitempty"`
		} `json:"chain"`
	}
	resp, raw := doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/alpha/audit", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit: %d %s", resp.StatusCode, raw)
	}
	if err := json.Unmarshal([]byte(raw), &audit); err != nil {
		t.Fatalf("audit body: %v", err)
	}
	if audit.TotalEvents == 0 || len(audit.Events) == 0 {
		t.Fatalf("audit ledger empty: %s", raw)
	}
	for _, ev := range audit.Events {
		if ev.Seq == 0 || len(ev.Hash) != 2*wal.HashSize {
			t.Fatalf("audit event not pinned to a WAL record: %+v", ev)
		}
	}
	if !audit.Chain.Verified || audit.Chain.HeadSeq == 0 {
		t.Fatalf("chain not verified: %s", raw)
	}
	// ?limit caps the event list.
	resp, raw = doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/alpha/audit?limit=1", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("audit limit: %d", resp.StatusCode)
	}
	var limited struct {
		Events []auditEvent `json:"events"`
	}
	if err := json.Unmarshal([]byte(raw), &limited); err != nil || len(limited.Events) != 1 {
		t.Fatalf("limit=1 returned %d events (err %v)", len(limited.Events), err)
	}

	// Flip one payload bit on disk: the live Verify walk reports the
	// break, and a restart refuses recovery with the offset.
	ts.Close()
	srv.Abort()
	segs, err := filepath.Glob(filepath.Join(dir, "*.wal"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := wal.Check(dir, false); err == nil {
		t.Fatal("fsck accepted a flipped bit")
	}
	if _, err := New(walConfig(dir)); err == nil {
		t.Fatal("recovery accepted a flipped bit")
	}
}

// TestWALAuditWithoutWAL pins the 501 contract for daemons running
// without a log.
func TestWALAuditWithoutWAL(t *testing.T) {
	_, ts := newTestServer(t, scenarioConfig())
	resp, _ := doReq(t, http.MethodGet, ts.URL+"/v1/scenarios/default/audit", nil)
	if resp.StatusCode != http.StatusNotImplemented {
		t.Fatalf("audit without WAL: status %d, want 501", resp.StatusCode)
	}
}
