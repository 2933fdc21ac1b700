package placemon

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
)

// ingestScenarios is how many scenarios every BenchmarkIngestWAL server
// hosts; the spread rows deal batches over all of them.
const ingestScenarios = 8

// BenchmarkIngestWAL measures observation ingest per batch, straight
// through the HTTP handler with no socket, across the serving layer's
// deployment modes and concurrency: store {memory, wal-none, wal-group}
// × writers {1, 8, 64} × {same scenario, spread over 8 scenarios}. The
// durable WAL row is named for the -wal-sync name placebench passes,
// "group"; "always" is the same mode. Every batch is observe-sized: 256 reports on a ~2 000-node
// hierarchy, a fresh batch_id, and a fresh failure set of at most one
// node, drawn from the nodes the paths cross so that most batches change
// the diagnosis and emit events to apply, log and encode. ns/op is wall
// time per batch over all writers, so a row's inverse is its throughput;
// allocs/op counts every goroutine's allocations, the WAL's included.
//
// Each store gets one server with 8 scenarios built from the same
// document. The writers of a row are exactly that many goroutines,
// whatever GOMAXPROCS is, sharing b.N batches; batch IDs count up across
// every row and b.N ramp of a store, so no batch is ever a replay.
func BenchmarkIngestWAL(b *testing.B) {
	spec, _ := hierarchySpec(b, 2000, 8, 32, 1)
	patterns := ingestPatterns(b, spec, 64)
	stores := []struct{ name, sync string }{
		{"memory", ""}, {"wal-none", "none"}, {"wal-group", "group"},
	}
	for _, store := range stores {
		b.Run(store.name, func(b *testing.B) {
			cfg := ServerConfig{}
			if store.sync != "" {
				cfg.WALDir = b.TempDir()
				cfg.WALSync = store.sync
			}
			srv, err := NewScenarioServer(cfg)
			if err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			for i := range ingestScenarios {
				if err := srv.AddScenario(fmt.Sprintf("s%d", i), spec); err != nil {
					b.Fatal(err)
				}
			}
			// Prime: every scenario sees every pattern once before the
			// first row, so no row pays a scenario's first reports.
			var seq atomic.Int64
			h, w := srv.Handler(), newIngestWriter()
			for s := range ingestScenarios {
				for _, p := range patterns {
					if err := w.post(h, s, seq.Add(1), p); err != nil {
						b.Fatal(err)
					}
				}
			}
			for _, writers := range []int{1, 8, 64} {
				for _, layout := range []string{"same", "spread"} {
					b.Run(fmt.Sprintf("w%d/%s", writers, layout), func(b *testing.B) {
						runIngestWriters(b, h, patterns, &seq, writers, layout == "spread")
					})
				}
			}
		})
	}
}

// runIngestWriters posts b.N batches from exactly writers goroutines.
// Batch n goes to scenario s0, or to s(n mod 8) when spread, with report
// pattern mix(n) mod len(patterns).
func runIngestWriters(b *testing.B, h http.Handler, patterns [][]byte, seq *atomic.Int64, writers int, spread bool) {
	b.ReportAllocs()
	var left atomic.Int64
	left.Store(int64(b.N))
	ws := make([]*ingestWriter, writers)
	for i := range ws {
		ws[i] = newIngestWriter()
	}
	var wg sync.WaitGroup
	b.ResetTimer()
	for _, w := range ws {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for left.Add(-1) >= 0 {
				n := seq.Add(1)
				s := 0
				if spread {
					s = int(n % ingestScenarios)
				}
				if err := w.post(h, s, n, patterns[mix(n)%uint64(len(patterns))]); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// mix scrambles a batch number (splitmix64's finalizer), so consecutive
// batches of one scenario draw unrelated failure patterns.
func mix(n int64) uint64 {
	z := uint64(n) + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// ingestPatterns renders n report arrays, `"reports":[...]}` to the end
// of the document: half with every connection up, half with one node
// failed, drawn from the nodes some connection's path crosses, so every
// connection whose path crosses it reports down.
func ingestPatterns(tb testing.TB, sp ScenarioSpec, n int) [][]byte {
	tb.Helper()
	nw, err := sp.Network()
	if err != nil {
		tb.Fatal(err)
	}
	var paths [][]int
	onPath := map[int]bool{}
	var crossed []int
	for s, svc := range sp.Placement.Services {
		for _, c := range svc.Clients {
			p := nw.PathNodes(c, sp.Placement.Hosts[s])
			paths = append(paths, p)
			for _, v := range p {
				if !onPath[v] {
					onPath[v] = true
					crossed = append(crossed, v)
				}
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	out := make([][]byte, n)
	for i := range out {
		failed := -1
		if i%2 == 1 {
			failed = crossed[rng.Intn(len(crossed))]
		}
		buf := []byte(`"reports":[`)
		for c, p := range paths {
			if c > 0 {
				buf = append(buf, ',')
			}
			up := true
			for _, v := range p {
				if v == failed {
					up = false
				}
			}
			buf = fmt.Appendf(buf, `{"connection":%d,"up":%t}`, c, up)
		}
		out[i] = append(buf, "]}"...)
	}
	return out
}

// ingestWriter is one writer goroutine's reusable request state: a
// request per scenario over a rewindable body, the body buffer, and a
// response sink, so the loop allocates nothing of its own.
type ingestWriter struct {
	reqs   []*http.Request
	bodies []*bytes.Reader
	buf    []byte
	sink   ingestSink
}

func newIngestWriter() *ingestWriter {
	w := &ingestWriter{sink: ingestSink{header: make(http.Header, 8)}}
	for s := range ingestScenarios {
		rd := bytes.NewReader(nil)
		req := httptest.NewRequest(http.MethodPost, fmt.Sprintf("/v1/scenarios/s%d/observations", s), nil)
		req.Header.Set("Content-Type", "application/json")
		req.Body = io.NopCloser(rd)
		w.reqs = append(w.reqs, req)
		w.bodies = append(w.bodies, rd)
	}
	return w
}

// post sends batch n, with report pattern, to scenario s and checks for
// a fresh 200.
func (w *ingestWriter) post(h http.Handler, s int, n int64, pattern []byte) error {
	w.buf = append(w.buf[:0], `{"batch_id":"b`...)
	w.buf = strconv.AppendInt(w.buf, n, 10)
	w.buf = append(w.buf, `","time":`...)
	w.buf = strconv.AppendInt(w.buf, n, 10)
	w.buf = append(w.buf, ',')
	w.buf = append(w.buf, pattern...)
	w.bodies[s].Reset(w.buf)
	w.sink.code = 0
	clear(w.sink.header)
	h.ServeHTTP(&w.sink, w.reqs[s])
	if w.sink.code != http.StatusOK || w.sink.header.Get("Placemond-Replayed") != "" {
		return fmt.Errorf("batch %d to s%d: status %d, replayed %q", n, s, w.sink.code, w.sink.header.Get("Placemond-Replayed"))
	}
	return nil
}

// ingestSink is a response writer that keeps the status and drops the
// body.
type ingestSink struct {
	header http.Header
	code   int
}

func (s *ingestSink) Header() http.Header { return s.header }
func (s *ingestSink) WriteHeader(code int) {
	if s.code == 0 {
		s.code = code
	}
}
func (s *ingestSink) Write(b []byte) (int, error) {
	if s.code == 0 {
		s.code = http.StatusOK
	}
	return len(b), nil
}
