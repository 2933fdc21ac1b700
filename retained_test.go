package placemon

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
)

// retainedLimit bounds the live heap an observe-shaped scenario keeps
// after 1 024 batches that emit diagnoses (TestIngestRetainedHeap), per
// store: under half of what the server kept while its dedup window held
// every response body and its audit ledger the expanded node lists, 11.6
// MiB in memory and 21.2 MiB with a write-ahead log on a linux/amd64
// build. Compact events keep about 0.8 and 1.0 MiB.
var retainedLimit = map[string]uint64{
	"memory": 5 << 20,
	"wal":    10 << 20,
}

// TestIngestRetainedHeap is the regression guard for keeping each
// emitted diagnosis once, in compact form: an observe-shaped scenario
// takes 1 024 batches, each with a fresh batch ID and a failure that
// changes the diagnosis, so the dedup window fills and, with a WAL, so
// does the audit ledger. The live heap after two collections, less the
// reading before the batches, must stay under retainedLimit.
func TestIngestRetainedHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("builds an observe-shaped scenario")
	}
	raw, _ := observeScenario(t)
	var spec ScenarioSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	patterns := ingestPatterns(t, spec, 64)
	for _, store := range []string{"memory", "wal"} {
		t.Run(store, func(t *testing.T) {
			cfg := ServerConfig{}
			if store == "wal" {
				cfg.WALDir = t.TempDir()
				cfg.WALSync = "none"
			}
			srv, err := NewScenarioServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			if err := srv.AddScenario("s0", spec); err != nil {
				t.Fatal(err)
			}
			h := srv.Handler()
			before := liveHeap()
			for n := 1; n <= 1024; n++ {
				// The odd patterns fail a node; consecutive batches fail
				// different ones.
				body := fmt.Appendf(nil, `{"batch_id":"b%d","time":%d,%s`, n, n, patterns[2*(n%32)+1])
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/scenarios/s0/observations", bytes.NewReader(body)))
				if rec.Code != http.StatusOK || !bytes.Contains(rec.Body.Bytes(), []byte(`"diagnosis"`)) {
					t.Fatalf("batch %d: status %d, body %.200s", n, rec.Code, rec.Body)
				}
			}
			retained := int64(liveHeap()) - int64(before)
			runtime.KeepAlive(srv)
			t.Logf("retained %.2f MiB", float64(retained)/(1<<20))
			if retained > int64(retainedLimit[store]) {
				t.Fatalf("the scenario kept %.2f MiB after 1 024 batches, over the %.2f MiB limit",
					float64(retained)/(1<<20), float64(retainedLimit[store])/(1<<20))
			}
		})
	}
}

// liveHeap is the heap in use after two collections.
func liveHeap() uint64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
