package placemon_test

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// benchRecorder is a minimal, reusable http.ResponseWriter: unlike
// httptest.NewRecorder-per-iteration it keeps its header map and body
// buffer across requests, so the benchmark measures the handler, not the
// recorder. reset clears state between iterations.
type benchRecorder struct {
	header http.Header
	code   int
	body   []byte
}

func (r *benchRecorder) Header() http.Header { return r.header }
func (r *benchRecorder) WriteHeader(code int) {
	if r.code == 0 {
		r.code = code
	}
}
func (r *benchRecorder) Write(b []byte) (int, error) {
	if r.code == 0 {
		r.code = http.StatusOK
	}
	r.body = append(r.body, b...)
	return len(b), nil
}
func (r *benchRecorder) reset() {
	r.code = 0
	r.body = r.body[:0]
	for k := range r.header {
		delete(r.header, k)
	}
}

// benchBody is a rewindable request body over a fixed string.
type benchBody struct{ strings.Reader }

func (b *benchBody) Close() error { return nil }

// BenchmarkRegistryOverhead measures single-tenant request latency on the
// serving hot paths — observation ingest, the diagnosis read without
// and during an outage, and healthz — straight through the HTTP handler,
// with no real socket. The sub-benchmark names are stable across
// releases so archived snapshots diff with `benchjson -compare`. The
// request and recorder are built once and rewound per iteration
// (one-time construction is not the code under measurement); the
// handler still runs the full middleware chain. diagnosis-outage runs
// last, after the golden sequence's one-failure batch, so the other rows
// read the scenario without an outage.
func BenchmarkRegistryOverhead(b *testing.B) {
	srv, nw, services, res := legacyGoldenServer(b)
	defer srv.Close()
	handler := srv.Handler()

	nConns := len(srv.Connections())
	var up []string
	for i := 0; i < nConns; i++ {
		up = append(up, fmt.Sprintf(`{"connection": %d, "up": true}`, i))
	}
	ingestBody := fmt.Sprintf(`{"time": 1, "reports": [%s]}`, strings.Join(up, ","))
	var failureBody string
	for _, rq := range legacyRequests(b, nw, services, res) {
		if rq.name == "ingest_failure" {
			failureBody = rq.body
		}
	}

	run := func(b *testing.B, method, path, body string) {
		b.Helper()
		b.ReportAllocs()
		req := httptest.NewRequest(method, path, nil)
		var rb benchBody
		if body != "" {
			req.Header.Set("Content-Type", "application/json")
			req.Body = &rb
		}
		rec := &benchRecorder{header: make(http.Header, 8)}
		for i := 0; i < b.N; i++ {
			rb.Reset(body)
			rec.reset()
			handler.ServeHTTP(rec, req)
			if rec.code != http.StatusOK {
				b.Fatalf("%s %s: status %d: %s", method, path, rec.code, rec.body)
			}
		}
	}

	b.Run("ingest", func(b *testing.B) {
		run(b, http.MethodPost, "/v1/observations", ingestBody)
	})
	b.Run("diagnosis", func(b *testing.B) {
		run(b, http.MethodGet, "/v1/diagnosis", "")
	})
	b.Run("healthz", func(b *testing.B) {
		run(b, http.MethodGet, "/healthz", "")
	})
	b.Run("diagnosis-outage", func(b *testing.B) {
		rec := httptest.NewRecorder()
		handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/observations", strings.NewReader(failureBody)))
		if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "outage-started") {
			b.Fatalf("failure batch: status %d: %s", rec.Code, rec.Body)
		}
		run(b, http.MethodGet, "/v1/diagnosis", "")
	})
}
