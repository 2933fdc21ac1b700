package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"time"

	"repro/placemonclient"
)

// TestMain lets the test binary double as the daemon child, so the tests
// start daemons exactly the way the benchmark does.
func TestMain(m *testing.M) {
	if cfg := os.Getenv(daemonEnv); cfg != "" {
		if err := runDaemon(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "daemon:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSameSeedSameInputs(t *testing.T) {
	tn, err := newTenant("obs-0", observeShape, topologySeed("obs-0"))
	if err != nil {
		t.Fatal(err)
	}
	again, err := newTenant("obs-0", observeShape, topologySeed("obs-0"))
	if err != nil {
		t.Fatal(err)
	}
	if string(tn.spec) != string(again.spec) {
		t.Fatal("the same scenario name gave different scenario documents")
	}
	if len(tn.paths) != 256 {
		t.Fatalf("scenario monitors %d connections, want 256", len(tn.paths))
	}
	gen := func(seed int64) ([]batch, []time.Duration) {
		return tn.batches(50, subSeed(seed, "batches")), schedule(observeRate, 2, subSeed(seed, "schedule"))
	}
	b1, s1 := gen(7)
	b2, s2 := gen(7)
	if !reflect.DeepEqual(b1, b2) || !slices.Equal(s1, s2) {
		t.Fatal("the same seed gave different batches or schedules")
	}
	b3, s3 := gen(8)
	if reflect.DeepEqual(b1, b3) || slices.Equal(s1, s3) {
		t.Fatal("different seeds gave identical batches or schedules")
	}
	if len(s1) != int(observeRate*2) || !slices.IsSorted(s1) {
		t.Fatalf("schedule has %d arrivals, unsorted=%t", len(s1), !slices.IsSorted(s1))
	}
}

func TestQuantileUsesSortedSamples(t *testing.T) {
	var s []float64
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for q, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 1: 100, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..100, %g) = %g, want %g", q, got, want)
		}
	}
	// Values a log-bucketed histogram would round to a bucket edge come
	// back exactly.
	odd := []float64{1.0003, 1.0001, 1.0002}
	if got := quantile(odd, 0.5); got != 1.0002 {
		t.Errorf("median = %g, want the observed 1.0002", got)
	}
	if got := quantile([]float64{1, 10}, 0.5); got != 1 {
		t.Errorf("median of {1, 10} = %g, want an observed sample, not 5.5", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median of nothing = %g, want 0", got)
	}
}

// cannedTraces is a /debug/traces answer from a cluster entry node and
// the owner it proxied to, for one ingest with nested stages.
const cannedEntry = `{"traces":[
 {"trace_id":"t1","method":"POST","path":"/v1/scenarios/hot-1/observations","status":200,
  "start":"2026-01-01T00:00:00Z","duration_seconds":0.003,
  "stages":[{"name":"forward","offset_seconds":0.0005,"duration_seconds":0.002}]},
 {"trace_id":"t2","method":"GET","path":"/healthz","status":200,"start":"2026-01-01T00:00:01Z","duration_seconds":0.0001}]}`

const cannedOwner = `{"traces":[
 {"trace_id":"t1","method":"POST","path":"/v1/scenarios/hot-1/observations","status":503,
  "start":"2026-01-01T00:00:00Z","duration_seconds":0.0001},
 {"trace_id":"t1","method":"POST","path":"/v1/scenarios/hot-1/observations","status":200,
  "start":"2026-01-01T00:00:00.0006Z","duration_seconds":0.0018,
  "stages":[
   {"name":"decode","offset_seconds":0.0001,"duration_seconds":0.0002},
   {"name":"dedup","offset_seconds":0.0003,"duration_seconds":0.00005},
   {"name":"wal","offset_seconds":0.0006,"duration_seconds":0.001},
   {"name":"ingest","offset_seconds":0.0004,"duration_seconds":0.0013}]}]}`

func decodeCanned(t *testing.T, raw string) []traceRec {
	t.Helper()
	var out struct {
		Traces []traceRec `json:"traces"`
	}
	if err := json.Unmarshal([]byte(raw), &out); err != nil {
		t.Fatal(err)
	}
	return out.Traces
}

func TestStageSelfTimeAndTraceJoin(t *testing.T) {
	entry, owner := decodeCanned(t, cannedEntry), decodeCanned(t, cannedOwner)
	self, unstaged := selfTimes(owner[1])
	near := func(got, want float64) bool { return got > want-1e-9 && got < want+1e-9 }
	for name, want := range map[string]float64{"decode": 0.0002, "dedup": 0.00005, "wal": 0.001, "ingest": 0.0003} {
		if !near(self[name], want) {
			t.Errorf("self(%s) = %g, want %g", name, self[name], want)
		}
	}
	// Top-level stages cover [0.0001, 0.00035) and [0.0004, 0.0017).
	if !near(unstaged, 0.0018-0.00025-0.0013) {
		t.Errorf("unstaged = %g", unstaged)
	}

	o := &op{kind: opIngest, ingest: &placemonclient.IngestResult{Events: make([]placemonclient.Event, 2)},
		span: callSpan{traceID: "t1", call: 4 * time.Millisecond, trips: []time.Duration{500 * time.Microsecond, 3500 * time.Microsecond}}}
	missing := &op{kind: opIngest, ingest: &placemonclient.IngestResult{}, span: callSpan{traceID: "nope", call: time.Millisecond, trips: []time.Duration{time.Millisecond}}}
	p := &pass{ops: []*op{o, missing}, entry: entry, others: owner}
	l := p.joinLayers()
	if l.spans != 2 || l.joined != 1 {
		t.Fatalf("joined %d of %d spans, want 1 of 2", l.joined, l.spans)
	}
	want := map[string]float64{
		"server.wire_us":        500,  // last trip 3.5 ms − entry span 3 ms
		"cluster.forward_us":    2000, // forward stage on the entry node
		"cluster.entry_self_us": 1000,
		"server.decode_us":      200,
		"server.dedup_us":       50,
		"monitord.apply_us":     300, // ingest minus the nested wal stage
		"wal.append_us":         1000,
		"server.unstaged_us":    250,
	}
	for name, v := range want {
		if got := l.samples[name]; len(got) != 1 || !near(got[0], v) {
			t.Errorf("%s = %v, want [%g]", name, got, v)
		}
	}
	// The client's own time is its span minus both deliveries.
	if got := l.samples["placemonclient.self_us"]; len(got) != 2 || !near(got[0], 0) {
		t.Errorf("placemonclient.self_us = %v", got)
	}
	if got := l.samples["placemonclient.attempts_per_call"]; got[0] != 2 {
		t.Errorf("attempts = %v, want 2 for the retried call", got)
	}
	if _, ok := l.stageTable()["POST /v1/scenarios/{id}/observations | wal"]; !ok {
		t.Errorf("stage table lacks the wal row: %v", sortedKeys(l.stageTable()))
	}
}

func TestPacerLatenessUnderGoTimerBaseline(t *testing.T) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	start := time.Now().Add(5 * time.Millisecond)
	var late []float64
	for _, off := range schedule(500, 1, 1) {
		late = append(late, ms(sleepUntil(start.Add(off))))
	}
	// Go timers woke 0.61 ms late at the median on the reference host.
	if p50 := quantile(late, 0.5); p50 > 0.3 {
		t.Fatalf("pacer woke %.3f ms late at the median", p50)
	}
}

func TestProcParsers(t *testing.T) {
	cpu, err := parseSchedstat("563149261 9758649 52\n")
	if err != nil || cpu != 563149261*time.Nanosecond {
		t.Fatalf("parseSchedstat = %v, %v", cpu, err)
	}
	st, err := parseCPUStat("cpu  10 1 5 100 2 0 1 7 0 0")
	if err != nil || st.steal != 7 || st.busy != 17 || st.total != 126 {
		t.Fatalf("parseCPUStat = %+v, %v", st, err)
	}
	if got := (cpuStat{steal: 17, total: 226}).share(st); got != 0.1 {
		t.Fatalf("share = %g, want 0.1", got)
	}
	if got := (cpuStat{steal: 17, busy: 107}).contention(st); got != 0.1 {
		t.Fatalf("contention = %g, want 0.1", got)
	}
	text := []byte("# HELP x\nplacemond_wal_fsync_duration_seconds_count 3\n" +
		"placemond_wal_fsync_duration_seconds_count_other 100\n" +
		"placemond_wal_fsync_duration_seconds_count{node=\"a\"} 4\n")
	if v, ok := promSum(text, "placemond_wal_fsync_duration_seconds_count"); !ok || v != 7 {
		t.Fatalf("promSum = %g, %t; want 7", v, ok)
	}
}

// TestDaemonSpikeKeepsItsWindow ranks canned one-second windows: the
// daemon doubles its CPU in one of them while the host withholds the same
// share of what the guest wants. Steal's share of all ticks rises with the
// guest's demand there, so ranking by it would drop that window; ranking
// by contention keeps it, and its CPU counts.
func TestDaemonSpikeKeepsItsWindow(t *testing.T) {
	// Per window: the guest's busy ticks, steal ticks, and daemon CPU;
	// every window has 200 ticks in all.
	readings := []struct {
		busy, steal uint64
		daemon      time.Duration
	}{
		{100, 5, 400 * time.Millisecond},  // contention 0.048, steal share 0.025
		{190, 9, 900 * time.Millisecond},  // the spike: contention 0.045, steal share 0.045
		{60, 4, 250 * time.Millisecond},   // contention 0.063, steal share 0.020
		{100, 20, 400 * time.Millisecond}, // contention 0.167
	}
	p := &pass{}
	var prev cpuStat
	var busy, idle, steal uint64
	for _, r := range readings {
		busy, idle, steal = busy+r.busy, idle+200-r.busy-r.steal, steal+r.steal
		cur, err := parseCPUStat(fmt.Sprintf("cpu %d 0 0 %d 0 0 0 %d", busy, idle, steal))
		if err != nil {
			t.Fatal(err)
		}
		p.windows = append(p.windows, window{Steal: cur.share(prev), Contention: cur.contention(prev), Daemon: r.daemon})
		prev = cur
	}
	if !(p.windows[1].Steal > p.windows[0].Steal && p.windows[1].Steal > p.windows[2].Steal) {
		t.Fatalf("canned steal shares %+v do not put the spike last among the quiet windows", p.windows)
	}
	p.selectWindows(2)
	var got []int
	for i, w := range p.windows {
		if w.Selected {
			got = append(got, i)
		}
	}
	if !slices.Equal(got, []int{0, 1}) {
		t.Fatalf("selected windows %v, want [0 1]: the spike window must stay", got)
	}
	if p.daemonCPU != 1300*time.Millisecond {
		t.Fatalf("daemon CPU over the selected windows = %s, want 1.3s", p.daemonCPU)
	}
}

// TestFreePortsDistinct picks many ports at once: none may repeat, or two
// cluster nodes would be given the same address.
func TestFreePortsDistinct(t *testing.T) {
	addrs, err := freePorts(64)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, a := range addrs {
		if seen[a] {
			t.Fatalf("port %s picked twice", a)
		}
		seen[a] = true
	}
}

func testEnv(t *testing.T) *env {
	t.Helper()
	bin, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	return &env{seed: 3, seconds: 1, daemonBin: bin}
}

// TestGeneratorAloneLeavesDaemonIdle runs the load generator against a
// no-op handler while a daemon sits idle: the daemon's CPU and request
// counters must not move, so everything cpu_us_per_op reads is the
// daemon's own work.
func TestGeneratorAloneLeavesDaemonIdle(t *testing.T) {
	e := testEnv(t)
	d, err := startDaemon(e.daemonBin, daemonConfig{Addr: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.stop()
	if err := d.waitHealthy(30 * time.Second); err != nil {
		t.Fatal(err)
	}
	noop := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte(`{"events":[]}`))
	}))
	defer noop.Close()
	tn, err := newTenant("obs-0", observeShape, topologySeed("obs-0"))
	if err != nil {
		t.Fatal(err)
	}
	offsets := schedule(observeRate, 1, 1)
	ops := make([]*op, len(offsets))
	for i, off := range offsets {
		ops[i] = &op{due: off, kind: opIngest, batch: i}
	}
	senders := make([]*sender, 2)
	for i := range senders {
		if senders[i], err = newSender(noop.URL, false); err != nil {
			t.Fatal(err)
		}
	}
	requests := func() float64 {
		m, err := fetchMetrics(d.url)
		if err != nil {
			t.Fatal(err)
		}
		v, _ := promSum(m, "placemond_observations_ingested_total")
		return v
	}
	before := requests()
	var p pass
	p.ops = ops
	if err := p.measureLoad([]*daemon{d}, 1, 1, func(start time.Time) {
		runOpen(start, senders, ops, callOp([]*tenant{tn}, [][]batch{tn.batches(len(ops), 1)}))
	}); err != nil {
		t.Fatal(err)
	}
	for _, o := range ops {
		if o.err != nil {
			t.Fatalf("generator call failed: %v", o.err)
		}
	}
	if p.genCPU == 0 {
		t.Fatal("the generator used no CPU; the check would prove nothing")
	}
	// A few milliseconds of slack for the idle runtime's own housekeeping.
	if p.daemonCPU > 5*time.Millisecond {
		t.Fatalf("daemon CPU rose by %s while only the generator ran (generator used %s)", p.daemonCPU, p.genCPU)
	}
	if after := requests(); after != before {
		t.Fatalf("daemon ingested %g observations while only the generator ran", after-before)
	}
}

// TestSmoke runs every workload for a second, traced, with every check on.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("starts daemons")
	}
	e := testEnv(t)
	e.placemonBin = filepath.Join(t.TempDir(), "placemon")
	if out, err := exec.Command("go", "build", "-o", e.placemonBin, "repro/cmd/placemon").CombinedOutput(); err != nil {
		t.Fatalf("build placemon: %v\n%s", err, out)
	}
	for _, name := range sortedKeys(workloads) {
		t.Run(name, func(t *testing.T) {
			base, err := runPass(workloads[name], e)
			if err != nil {
				t.Fatal(err)
			}
			e := *e
			e.traced = true
			traced, err := runPass(workloads[name], &e)
			if err != nil {
				t.Fatal(err)
			}
			for _, p := range []*pass{base, traced} {
				if ok, attempted, failed := p.verdict(); !ok {
					t.Errorf("traced=%t: %d of %d failed: %+v", p.traced, failed, attempted, p.record(nil).Failures)
				}
				for _, c := range p.checks {
					if !c.OK {
						t.Errorf("check %s: %s", c.Name, c.Err)
					}
				}
			}
			layers := traced.layerMetrics(base)
			if layers["trace.joined_frac"] != 1 {
				t.Errorf("joined %g of the traced requests", layers["trace.joined_frac"])
			}
			for _, m := range endToEnd {
				if v := base.endToEnd()[m.name]; !(v > 0) {
					t.Errorf("%s = %g, want > 0", m.name, v)
				}
			}
		})
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(table []metricDef, decl []struct{ Name, Unit string }) bool {
		if len(table) != len(decl) {
			return false
		}
		for i, m := range table {
			if m.name != decl[i].Name || m.unit != decl[i].Unit {
				return false
			}
		}
		return true
	}
	if !same(endToEnd, doc.EndToEnd) || !same(perLayer, doc.PerLayer) {
		t.Fatal("the metric tables and BENCHMARK.json disagree")
	}
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}
