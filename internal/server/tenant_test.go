package server

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"repro/internal/monitord"
)

// paddedSpec is spec with a 64 KiB field testBuild ignores: a document
// the size of a real scenario's (a replan-sized one is about 55 KB),
// whose record takes as long to encode and append as one.
func paddedSpec(t testing.TB, spec testSpec) []byte {
	t.Helper()
	return mustJSON(t, struct {
		testSpec
		Pad string `json:"pad"`
	}{spec, strings.Repeat("x", 64<<10)})
}

// TestScenarioPublication: no batch on a scenario is applied or logged
// ahead of the record that defines it. Two goroutines post one-report
// batches with batch IDs to net1 while it is created, revised through
// ReplaceScenarioNetwork (the PUT …/network path), or adopted from
// another node; then the server crashes.
// A batch applied to the new tenant and logged ahead of its create,
// update or migrate-in record would be skipped at recovery or replayed
// against the old network, and its dedup entry lost, so the recovered
// state must equal the live one byte for byte in every round.
func TestScenarioPublication(t *testing.T) {
	const rounds = 50
	cases := []struct {
		name    string
		setup   func(t *testing.T, s *Server)
		publish func(s *Server, doc []byte) error
		doc     testSpec
	}{
		{"create", nil,
			func(s *Server, doc []byte) error { return s.CreateScenario("net1", doc) },
			lineSpec()},
		{"network",
			func(t *testing.T, s *Server) {
				if err := s.CreateScenario("net1", mustJSON(t, lineSpec())); err != nil {
					t.Fatal(err)
				}
			},
			func(s *Server, doc []byte) error { return s.ReplaceScenarioNetwork("net1", doc) },
			wideSpec()},
		{"adopt", nil,
			func(s *Server, doc []byte) error {
				return s.adoptScenario(&walMigrate{
					ID: "net1", Source: "node-1", Target: "node-0",
					State: &walTenantState{Spec: doc, Monitor: monitord.State{States: make([]monitord.ConnState, 2)}},
				}, true)
			},
			lineSpec()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			doc := paddedSpec(t, c.doc)
			diverged, example := 0, ""
			for round := 0; round < rounds; round++ {
				cfg := walConfig(t.TempDir())
				cfg.BuildScenario = revisingBuild
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if c.setup != nil {
					c.setup(t, s)
				}
				h := s.Handler()
				stop := make(chan struct{})
				var wg sync.WaitGroup
				for g := 0; g < 2; g++ {
					wg.Add(1)
					go func(g int) {
						defer wg.Done()
						for i := 0; ; i++ {
							select {
							case <-stop:
								return
							default:
							}
							body := fmt.Sprintf(`{"batch_id":"g%d-%d","time":%d,"reports":[{"connection":0,"up":%t}]}`,
								g, i, i, (i+g)%2 == 0)
							h.ServeHTTP(httptest.NewRecorder(),
								httptest.NewRequest(http.MethodPost, "/v1/scenarios/net1/observations", strings.NewReader(body)))
						}
					}(g)
				}
				err = c.publish(s, doc)
				close(stop)
				wg.Wait()
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				want := mustExport(t, s)
				s.Abort()

				s2, err := New(cfg)
				if err != nil {
					t.Fatalf("round %d: recovery: %v", round, err)
				}
				got := mustExport(t, s2)
				s2.Abort()
				if string(got) != string(want) {
					diverged++
					if example == "" {
						// The documents embed the padding; show where they part.
						i := 0
						for i < len(got) && i < len(want) && got[i] == want[i] {
							i++
						}
						from := max(i-200, 0)
						example = fmt.Sprintf("round %d, from byte %d:\nrecovered %.400s\nlive      %.400s",
							round, from, got[from:], want[from:])
					}
				}
			}
			if diverged > 0 {
				t.Errorf("recovered state diverged from the live state in %d of %d rounds; first: %s", diverged, rounds, example)
			}
		})
	}
}

// TestLoopClosed: a closed tenant, which is what a request that resolved
// its scenario just before a removal holds, answers ingest and diagnosis
// with 409 like a removed scenario, and compaction skips it. A diagnosis
// read used to index the closed monitor's empty state copy, panic, and
// answer 500. The name is kept from the monitor test this replaces.
func TestLoopClosed(t *testing.T) {
	s, ts := newTestServer(t, walConfig(t.TempDir()))
	base := ts.URL + "/v1/scenarios/net1"
	if resp, body := doReq(t, http.MethodPut, base, mustJSON(t, lineSpec())); resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	outage := []byte(`{"time":1,"reports":[{"connection":0,"up":false},{"connection":1,"up":true}]}`)
	if resp, body := doReq(t, http.MethodPost, base+"/observations", outage); resp.StatusCode != http.StatusOK {
		t.Fatalf("ingest: %d %s", resp.StatusCode, body)
	}
	tn, _ := s.tenants.Get("net1")
	tn.close()
	tn.close() // idempotent

	for _, c := range []struct {
		method, path string
		body         []byte
	}{
		{http.MethodPost, base + "/observations", []byte(`{"time":2,"reports":[{"connection":0,"up":true}]}`)},
		{http.MethodGet, base + "/diagnosis", nil},
	} {
		resp, body := doReq(t, c.method, c.path, c.body)
		if resp.StatusCode != http.StatusConflict || !strings.Contains(body, `scenario \"net1\" was removed`) {
			t.Errorf("%s %s on a closed tenant: %d %s, want 409 naming the removal", c.method, c.path, resp.StatusCode, body)
		}
	}
	var st walState
	if err := json.Unmarshal(mustExport(t, s), &st); err != nil {
		t.Fatal(err)
	}
	if _, ok := st.Scenarios["net1"]; ok {
		t.Error("compaction exported the closed tenant")
	}
	if _, ok := st.Scenarios[DefaultScenario]; !ok {
		t.Error("compaction dropped the open default tenant")
	}
}

// TestLoopConcurrent drives one scenario from every side at once under
// the race detector: two ingest writers; diagnosis, healthz and (with a
// log) audit reads; StateExport; and a PUT …/network halfway through. In
// memory mode nothing but the scenario's state lock orders the export
// against the writers. In WAL mode compaction also runs every 8 records,
// and then the server crashes: the recovered state must be
// byte-identical to the live one. The name is kept from the monitor test
// this replaces.
func TestLoopConcurrent(t *testing.T) {
	for _, mode := range []string{"memory", "wal"} {
		t.Run(mode, func(t *testing.T) {
			dir := t.TempDir()
			cfg := networkConfig()
			reads := []string{"/v1/diagnosis", "/healthz"}
			if mode == "wal" {
				cfg = walConfig(dir)
				cfg.BuildScenario = revisingBuild
				cfg.WAL.CompactEvery = 8
				reads = append(reads, "/v1/scenarios/default/audit")
			}
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			driveConcurrently(t, s, reads)
			if t.Failed() {
				s.Abort()
				return
			}
			if err := s.VerifyIncremental(); err != nil {
				t.Fatal(err)
			}
			if mode == "memory" {
				s.Abort()
				return
			}
			if rep, err := s.wlog.Verify(); err != nil || rep.SnapshotSeq == 0 {
				t.Fatalf("no compaction ran: %+v %v", rep, err)
			}
			want := mustExport(t, s)
			s.Abort()

			// The log now holds a revised default, so recovery boots
			// without the original default document.
			cfg.DefaultSpec = nil
			s2, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			defer s2.Abort()
			if got := mustExport(t, s2); string(got) != string(want) {
				t.Fatalf("recovered state diverged from the live state:\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// driveConcurrently runs TestLoopConcurrent's workload against the
// default scenario of s and returns once every goroutine is done.
func driveConcurrently(t *testing.T, s *Server, reads []string) {
	const batches = 100
	h := s.Handler()
	serve := func(method, path string, body []byte) (int, string) {
		var rd io.Reader
		if body != nil {
			rd = strings.NewReader(string(body))
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		return rec.Code, rec.Body.String()
	}
	change := mustJSON(t, wideSpec())
	halfway := make(chan struct{})
	var once sync.Once
	reachHalfway := func() { once.Do(func() { close(halfway) }) }
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			defer reachHalfway() // also when a writer gives up early
			for i := 0; i < batches; i++ {
				if w == 0 && i == batches/2 {
					reachHalfway()
				}
				body := fmt.Sprintf(`{"batch_id":"w%d-%d","time":%d,"reports":[{"connection":%d,"up":%t}]}`,
					w, i, i, w, i%3 != 0)
				// A batch that resolved the tenant being replaced answers
				// 409: draining, or closed once the new one is published.
				if code, raw := serve(http.MethodPost, "/v1/observations", []byte(body)); code != http.StatusOK && code != http.StatusConflict {
					t.Errorf("batch w%d-%d: %d %s", w, i, code, raw)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < batches; i++ {
			for _, path := range reads {
				if code, raw := serve(http.MethodGet, path, nil); code != http.StatusOK && code != http.StatusConflict {
					t.Errorf("GET %s: %d %s", path, code, raw)
					return
				}
			}
			if _, err := s.StateExport(); err != nil {
				t.Errorf("StateExport: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-halfway
		if code, raw := serve(http.MethodPut, "/v1/scenarios/default/network", change); code != http.StatusOK {
			t.Errorf("PUT …/network: %d %s", code, raw)
		}
	}()
	wg.Wait()
}
