package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/wal"
)

// TestIngestIdempotency: re-delivering a batch under the same batch_id
// must replay the original events instead of re-applying the batch —
// the exactly-once contract a retrying client depends on.
func TestIngestIdempotency(t *testing.T) {
	s, ts := newTestServer(t, testConfig())

	body := `{"batch_id": "b-1", "time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`
	resp, firstRaw := postCT(t, ts.URL+"/v1/observations", "application/json", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("first delivery status = %d", resp.StatusCode)
	}
	var first map[string]any
	if err := json.Unmarshal([]byte(firstRaw), &first); err != nil {
		t.Fatal(err)
	}
	if kinds := eventKinds(t, first); len(kinds) == 0 || kinds[0] != "outage-started" {
		t.Fatalf("first delivery kinds = %v", kinds)
	}
	ingested := s.obsIngested.Value()

	// Later deliveries of the same batch, as sent and re-encoded without
	// spaces: replayed, byte-identical to the first answer, nothing
	// re-ingested.
	reencoded := `{"batch_id":"b-1","time":1,"reports":[{"connection":0,"up":false},{"connection":1,"up":true}]}`
	for _, retry := range []string{body, reencoded} {
		resp, raw := postCT(t, ts.URL+"/v1/observations", "application/json", retry)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replayed delivery %s: status = %d", retry, resp.StatusCode)
		}
		if resp.Header.Get("Placemond-Replayed") != "true" {
			t.Fatalf("replay header missing on %s; headers = %v", retry, resp.Header)
		}
		if raw != firstRaw {
			t.Fatalf("replayed body of %s = %q, want the first answer %q", retry, raw, firstRaw)
		}
	}
	if got := s.obsIngested.Value(); got != ingested {
		t.Fatalf("replay re-ingested: counter %v → %v", ingested, got)
	}
	if s.obsReplayed.Value() != 2 {
		t.Fatalf("replay counter = %v, want 2", s.obsReplayed.Value())
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
		d.store(fmt.Sprintf("b-%d", i), dedupEntry{status: 200, events: []compactEvent{{time: float64(i)}}})
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
	d.store("b-2", dedupEntry{status: 200, events: []compactEvent{{time: 7}}})
	if d.size() != 2 {
		t.Fatalf("size after refresh = %d, want 2", d.size())
	}
	if e, _ := d.lookup("b-2"); e.events[0].time != 7 {
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

// disjointConfig is testConfig with the default scenario's two
// connections sharing no node (paths 0-1-2 and 3-4): with both down no
// single node explains the outage, so at k = 1 the diagnosis is
// inconsistent.
func disjointConfig(t *testing.T) Config {
	spec := lineSpec()
	spec.Paths = [][]int{{0, 1, 2}, {3, 4}}
	cfg := testConfig()
	cfg.DefaultSpec = mustJSON(t, spec)
	return cfg
}

// TestStaleDiagnosisOnRecomputeError: an inconsistent diagnosis keeps the
// inconsistency flag AND degrades to the last good diagnosis.
func TestStaleDiagnosisOnRecomputeError(t *testing.T) {
	s, ts := newTestServer(t, disjointConfig(t))
	ingestOutage(t, ts.URL)

	// The second connection goes down too: no single node lies on both.
	resp, body := postJSON(t, ts.URL+"/v1/observations",
		`{"time": 2, "reports": [{"connection": 1, "up": false}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %v", resp.StatusCode, body)
	}
	resp, body = getJSON(t, ts.URL+"/v1/diagnosis")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if body["inconsistent"] != true {
		t.Fatalf("inconsistency flag missing: %v", body)
	}
	if body["stale"] != true || body["diagnosis"] == nil {
		t.Fatalf("stale fallback missing: %v", body)
	}
	if age, ok := body["stale_age_seconds"].(float64); !ok || age < 0 {
		t.Fatalf("stale_age_seconds = %v", body["stale_age_seconds"])
	}
	if s.staleServed.Value() != 1 {
		t.Fatalf("stale counter = %v, want 1", s.staleServed.Value())
	}
}

// TestStaleWithoutCacheDegradesLikeBefore: with no last good diagnosis
// the old behavior (inconsistent, no diagnosis) is preserved.
func TestStaleWithoutCacheDegradesLikeBefore(t *testing.T) {
	_, ts := newTestServer(t, disjointConfig(t))
	// Both connections go down in one batch: no single node explains the
	// outage it leaves. The batch's first report alone was explainable,
	// but the last good diagnosis is the one a batch leaves, so none is
	// kept.
	resp, body := postJSON(t, ts.URL+"/v1/observations",
		`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": false}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest status = %d, body %v", resp.StatusCode, body)
	}

	_, body = getJSON(t, ts.URL+"/v1/diagnosis")
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

// TestDiagnosisReadNotTorn: a diagnosis read sees one state of the
// scenario, never half of one batch. A writer alternates a batch that
// takes connection 0 down, which node 0 or node 1 alone explains, with
// a batch that clears it, while reads run through the same handler.
// Every read must say "in outage" exactly when its connection table has
// a connection down, carry a diagnosis exactly then, and never report
// an inconsistent or stale one: every state the writer leaves has a
// one-node explanation.
func TestDiagnosisReadNotTorn(t *testing.T) {
	const reads = 3000
	s, _ := newTestServer(t, testConfig())
	h := s.Handler()
	batches := []string{
		`{"time": 1, "reports": [{"connection": 0, "up": false}, {"connection": 1, "up": true}]}`,
		`{"time": 2, "reports": [{"connection": 0, "up": true}]}`,
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(batches[i%2])))
			if rec.Code != http.StatusOK {
				t.Errorf("batch %d: status %d: %s", i, rec.Code, rec.Body)
				return
			}
		}
	}()

	bad, example := 0, ""
	for i := 0; i < reads; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/diagnosis", nil))
		var got struct {
			InOutage     bool `json:"in_outage"`
			Inconsistent bool `json:"inconsistent"`
			Stale        bool `json:"stale"`
			Connections  []struct {
				State string `json:"state"`
			} `json:"connections"`
			Diagnosis *diagnosisJSON `json:"diagnosis"`
		}
		if rec.Code != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", i, rec.Code, rec.Body)
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		down := false
		for _, c := range got.Connections {
			down = down || c.State == "down"
		}
		var problems []string
		if got.InOutage != down {
			problems = append(problems, fmt.Sprintf("in_outage %t with a connection down %t", got.InOutage, down))
		}
		if (got.Diagnosis != nil) != got.InOutage {
			problems = append(problems, fmt.Sprintf("diagnosis present %t, in_outage %t", got.Diagnosis != nil, got.InOutage))
		}
		if got.Inconsistent || got.Stale {
			problems = append(problems, fmt.Sprintf("inconsistent %t, stale %t", got.Inconsistent, got.Stale))
		}
		if len(problems) > 0 {
			bad++
			if example == "" {
				example = fmt.Sprintf("read %d: %s: %s", i, strings.Join(problems, "; "), rec.Body)
			}
		}
	}
	close(stop)
	wg.Wait()
	if bad > 0 {
		t.Errorf("%d of %d reads were torn; first: %s", bad, reads, example)
	}
}
