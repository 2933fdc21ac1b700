package server

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/tomography"
	"repro/internal/wal"
)

// TestIngestIdempotency: re-delivering a batch under the same batch_id
// must replay the original events instead of re-applying the batch —
// the exactly-once contract a retrying client depends on.
func TestIngestIdempotency(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	body := `{"batch_id": "b-1", "time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`
	resp, first := postJSON(t, ts.URL+"/v1/observations", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first delivery status = %d", resp.StatusCode)
	}
	if kinds := eventKinds(t, first); len(kinds) == 0 || kinds[0] != "outage-started" {
		t.Fatalf("first delivery kinds = %v", kinds)
	}
	ingested := s.obsIngested.Value()

	// Second delivery of the same batch: replayed, byte-identical events,
	// nothing re-ingested.
	resp2, err := http.Post(ts.URL+"/v1/observations", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("replayed delivery status = %d", resp2.StatusCode)
	}
	if resp2.Header.Get("Placemond-Replayed") != "true" {
		t.Fatalf("replay header missing; headers = %v", resp2.Header)
	}
	if !strings.Contains(string(raw), "outage-started") {
		t.Fatalf("replayed body lost the original events: %s", raw)
	}
	if got := s.obsIngested.Value(); got != ingested {
		t.Fatalf("replay re-ingested: counter %v → %v", ingested, got)
	}
	if s.obsReplayed.Value() != 1 {
		t.Fatalf("replay counter = %v, want 1", s.obsReplayed.Value())
	}

	// Control: the same reports under a FRESH batch_id are re-applied,
	// and — the states being unchanged — produce zero events. This is
	// exactly the divergence dedup exists to prevent.
	resp3, third := postJSON(t, ts.URL+"/v1/observations",
		`{"batch_id": "b-2", "time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`)
	if resp3.StatusCode != http.StatusOK {
		t.Fatalf("fresh-id delivery status = %d", resp3.StatusCode)
	}
	if kinds := eventKinds(t, third); len(kinds) != 0 {
		t.Fatalf("fresh-id redelivery produced events %v, want none", kinds)
	}
}

// TestIngestExactlyOnceConcurrentDuplicates: deliveries of one batch_id
// that arrive together — a client retry racing the attempt it gave up
// on — apply the batch exactly once, in memory, WAL and cluster mode
// alike. Every round posts one fresh batch, which flips connection 0 and
// so emits an event, from several goroutines at once: the tenant's
// ingested counter must grow by the batch size once, every reply must
// carry the same body, and all replies but the one that applied it must
// be replays.
func TestIngestExactlyOnceConcurrentDuplicates(t *testing.T) {
	const deliveries, rounds = 4, 200
	modes := []struct {
		name string
		boot func(t *testing.T) *Server
	}{
		{"memory", func(t *testing.T) *Server {
			s, _ := newTestServer(t, testConfig())
			return s
		}},
		{"wal", func(t *testing.T) *Server {
			cfg := testConfig()
			cfg.WAL = &WALConfig{Dir: t.TempDir(), Sync: wal.SyncNone, CompactEvery: -1}
			s, _ := newTestServer(t, cfg)
			return s
		}},
		{"cluster", func(t *testing.T) *Server {
			return startClusterNodes(t, 1, false, func(int) Config { return testConfig() })[0].srv
		}},
	}
	for _, mode := range modes {
		t.Run(mode.name, func(t *testing.T) {
			s := mode.boot(t)
			h, tn := s.Handler(), s.defaultTenant()
			bad, example := 0, ""
			for r := 0; r < rounds; r++ {
				body := fmt.Sprintf(`{"batch_id": "r-%d", "time": %d, "reports": [{"connection": 0, "up": %t}, {"connection": 1, "up": true}]}`,
					r, r, r%2 == 1)
				before := tn.obsIngested.Value()
				recs := make([]*httptest.ResponseRecorder, deliveries)
				start := make(chan struct{})
				var wg sync.WaitGroup
				for i := range recs {
					recs[i] = httptest.NewRecorder()
					wg.Add(1)
					go func(rec *httptest.ResponseRecorder) {
						defer wg.Done()
						<-start
						h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(body)))
					}(recs[i])
				}
				close(start)
				wg.Wait()

				var problems []string
				if got := tn.obsIngested.Value() - before; got != 2 {
					problems = append(problems, fmt.Sprintf("ingested %v reports, want 2", got))
				}
				fresh := 0
				for i, rec := range recs {
					if rec.Code != http.StatusOK {
						problems = append(problems, fmt.Sprintf("reply %d: status %d", i, rec.Code))
					}
					if !bytes.Equal(rec.Body.Bytes(), recs[0].Body.Bytes()) {
						problems = append(problems, fmt.Sprintf("reply %d body differs from reply 0's", i))
					}
					if rec.Header().Get("Placemond-Replayed") != "true" {
						fresh++
					}
				}
				if fresh != 1 {
					problems = append(problems, fmt.Sprintf("%d replies not marked replayed, want 1", fresh))
				}
				if len(problems) > 0 {
					bad++
					if example == "" {
						example = fmt.Sprintf("round %d: %s", r, strings.Join(problems, "; "))
					}
				}
			}
			if bad > 0 {
				t.Errorf("%d of %d rounds broke exactly-once; first: %s", bad, rounds, example)
			}
		})
	}
}

// TestIngestWithoutBatchIDStillWorks: the idempotency key is optional.
func TestIngestWithoutBatchIDStillWorks(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	resp, body := postJSON(t, ts.URL+"/v1/observations",
		`{"time": 1, "reports": [{"connection": 0, "up": false}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, body)
	}
	if resp.Header.Get("Placemond-Replayed") != "" {
		t.Fatalf("keyless ingest marked as replay")
	}
}

// TestDedupDisabled: DedupWindow -1 turns the window off and duplicate
// IDs are re-applied like any other batch.
func TestDedupDisabled(t *testing.T) {
	cfg := testConfig()
	cfg.DedupWindow = -1
	_, ts := newTestServer(t, cfg)

	body := `{"batch_id": "b-1", "time": 1, "reports": [{"connection": 0, "up": false}]}`
	postJSON(t, ts.URL+"/v1/observations", body)
	resp, second := postJSON(t, ts.URL+"/v1/observations", body)
	if resp.Header.Get("Placemond-Replayed") != "" {
		t.Fatalf("dedup disabled but delivery was replayed")
	}
	if kinds := eventKinds(t, second); len(kinds) != 0 {
		t.Fatalf("no-op redelivery produced events %v", kinds)
	}
}

// TestDedupWindowEviction: the window is bounded FIFO.
func TestDedupWindowEviction(t *testing.T) {
	d := newDedupWindow(2)
	for i := 0; i < 3; i++ {
		d.store(fmt.Sprintf("b-%d", i), dedupEntry{status: 200, body: []byte{byte(i)}})
	}
	if _, ok := d.lookup("b-0"); ok {
		t.Fatalf("oldest entry not evicted at capacity 2")
	}
	for _, id := range []string{"b-1", "b-2"} {
		if _, ok := d.lookup(id); !ok {
			t.Fatalf("%s evicted prematurely", id)
		}
	}
	if d.size() != 2 {
		t.Fatalf("size = %d, want 2", d.size())
	}
	// Refreshing a present ID must not grow the window.
	d.store("b-2", dedupEntry{status: 200, body: []byte("new")})
	if d.size() != 2 {
		t.Fatalf("size after refresh = %d, want 2", d.size())
	}
	if e, _ := d.lookup("b-2"); string(e.body) != "new" {
		t.Fatalf("refresh did not update payload")
	}
}

// ingestOutage drives the server into an outage whose events carry a
// diagnosis, seeding the last-good cache.
func ingestOutage(t *testing.T, url string) {
	t.Helper()
	resp, body := postJSON(t, url+"/v1/observations",
		`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %v", resp.StatusCode, body)
	}
}

// TestStaleDiagnosisOnTimeout: when the recompute blows its deadline the
// handler serves the last good diagnosis, marked stale.
func TestStaleDiagnosisOnTimeout(t *testing.T) {
	cfg := testConfig()
	cfg.DiagnosisTimeout = 20 * time.Millisecond
	s, ts := newTestServer(t, cfg)
	ingestOutage(t, ts.URL)

	def := s.defaultTenant()
	real := def.diagnose
	def.diagnose = func() (*tomography.Diagnosis, error) {
		time.Sleep(200 * time.Millisecond)
		return real()
	}
	resp, body := getJSON(t, ts.URL+"/v1/diagnosis")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body["stale"] != true {
		t.Fatalf("stale marker missing: %v", body)
	}
	if body["inconsistent"] == true {
		t.Fatalf("timeout misreported as inconsistency: %v", body)
	}
	if body["diagnosis"] == nil {
		t.Fatalf("no diagnosis served despite a cached one: %v", body)
	}
	if age, ok := body["stale_age_seconds"].(float64); !ok || age < 0 {
		t.Fatalf("stale_age_seconds = %v", body["stale_age_seconds"])
	}
	if s.staleServed.Value() != 1 {
		t.Fatalf("stale counter = %v, want 1", s.staleServed.Value())
	}
}

// TestStaleDiagnosisOnRecomputeError: an inconsistent recompute keeps the
// inconsistency flag AND degrades to the last good diagnosis.
func TestStaleDiagnosisOnRecomputeError(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	ingestOutage(t, ts.URL)

	s.defaultTenant().diagnose = func() (*tomography.Diagnosis, error) {
		return nil, fmt.Errorf("tomography: no consistent failure set")
	}
	resp, body := getJSON(t, ts.URL+"/v1/diagnosis")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body["inconsistent"] != true {
		t.Fatalf("inconsistency flag missing: %v", body)
	}
	if body["stale"] != true || body["diagnosis"] == nil {
		t.Fatalf("stale fallback missing: %v", body)
	}
}

// TestStaleWithoutCacheDegradesLikeBefore: with no last good diagnosis
// the old behavior (inconsistent, no diagnosis) is preserved.
func TestStaleWithoutCacheDegradesLikeBefore(t *testing.T) {
	s, ts := newTestServer(t, testConfig())
	// Reach the outage without ever producing a good diagnosis.
	def := s.defaultTenant()
	def.diagnose = func() (*tomography.Diagnosis, error) {
		return nil, fmt.Errorf("tomography: no consistent failure set")
	}
	ingestOutage(t, ts.URL)
	// Ingest events seed the cache through the daemon's internal
	// recompute; empty it so the fallback genuinely has nothing.
	def.lastGood.Store(nil)

	_, body := getJSON(t, ts.URL+"/v1/diagnosis")
	if body["inconsistent"] != true {
		t.Fatalf("inconsistency flag missing: %v", body)
	}
	if body["stale"] == true || body["diagnosis"] != nil {
		t.Fatalf("phantom stale diagnosis served: %v", body)
	}
}

// TestFreshDiagnosisNotMarkedStale: the happy path must not carry the
// staleness marker.
func TestFreshDiagnosisNotMarkedStale(t *testing.T) {
	_, ts := newTestServer(t, testConfig())
	ingestOutage(t, ts.URL)
	_, body := getJSON(t, ts.URL+"/v1/diagnosis")
	if body["stale"] == true {
		t.Fatalf("fresh diagnosis marked stale: %v", body)
	}
	if body["diagnosis"] == nil {
		t.Fatalf("no diagnosis on happy path: %v", body)
	}
}
