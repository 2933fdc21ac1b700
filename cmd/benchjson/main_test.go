package main

import (
	"os"
	"strings"
	"testing"
	"time"
)

const sample = `goos: linux
goarch: amd64
pkg: repro
cpu: AMD EPYC 7B13
BenchmarkTableI/Abovenet-8         	     100	  11093907 ns/op	 4093438 B/op	   39110 allocs/op
BenchmarkRouterConstruction-8      	    5000	    245678 ns/op
BenchmarkOpLoop-8                  	       2	 600123456 ns/op	       51.0 detect-%	12345 B/op	  100 allocs/op
PASS
ok  	repro	42.195s
`

func TestParse(t *testing.T) {
	now := time.Date(2026, 8, 5, 12, 0, 0, 0, time.UTC)
	sum, err := parse(strings.NewReader(sample), now)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Goos != "linux" || sum.Goarch != "amd64" || sum.Pkg != "repro" {
		t.Fatalf("metadata = %+v", sum)
	}
	if sum.CPU != "AMD EPYC 7B13" {
		t.Fatalf("cpu = %q", sum.CPU)
	}
	if sum.Date != "2026-08-05T12:00:00Z" {
		t.Fatalf("date = %q", sum.Date)
	}
	if len(sum.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3", len(sum.Benchmarks))
	}

	b := sum.Benchmarks[0]
	if b.Name != "BenchmarkTableI/Abovenet-8" || b.Iterations != 100 {
		t.Fatalf("first = %+v", b)
	}
	if b.NsPerOp != 11093907 || b.Metrics["B/op"] != 4093438 || b.Metrics["allocs/op"] != 39110 {
		t.Fatalf("first metrics = %+v", b.Metrics)
	}

	// No -benchmem columns is fine.
	if got := sum.Benchmarks[1].Metrics; len(got) != 1 || got["ns/op"] != 245678 {
		t.Fatalf("second metrics = %v", got)
	}

	// Custom b.ReportMetric units are preserved.
	if got := sum.Benchmarks[2].Metrics["detect-%"]; got != 51.0 {
		t.Fatalf("custom metric = %v, want 51", got)
	}
}

func TestParseIgnoresNonResultLines(t *testing.T) {
	in := `BenchmarkInProgress
Benchmark-not-a-result line here
goos: linux
PASS
`
	sum, err := parse(strings.NewReader(in), time.Unix(0, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 0 {
		t.Fatalf("parsed %d benchmarks from noise, want 0", len(sum.Benchmarks))
	}
}

func TestParseRejectsCorruptValues(t *testing.T) {
	in := "BenchmarkX-8  10  abc ns/op\n"
	if _, err := parse(strings.NewReader(in), time.Unix(0, 0).UTC()); err == nil {
		t.Fatalf("corrupt value accepted")
	}
}

const lazySample = `goos: linux
pkg: repro
BenchmarkLazyPlacement/AT&T/svc=20/greedy-8  	       5	 122508516 ns/op	     11085 evaluations/op	75429680 B/op	 1006799 allocs/op
BenchmarkLazyPlacement/AT&T/svc=20/lazy-8    	      14	  82256480 ns/op	      5256 evaluations/op	33268456 B/op	  437774 allocs/op
PASS
`

func TestParseEvaluationsMetric(t *testing.T) {
	sum, err := parse(strings.NewReader(lazySample), time.Unix(0, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 {
		t.Fatalf("parsed %d benchmarks, want 2", len(sum.Benchmarks))
	}
	if got := sum.Benchmarks[0].Metrics["evaluations/op"]; got != 11085 {
		t.Fatalf("greedy evaluations/op = %v, want 11085", got)
	}
	if got := sum.Benchmarks[1].Metrics["evaluations/op"]; got != 5256 {
		t.Fatalf("lazy evaluations/op = %v, want 5256", got)
	}
}

func TestCompareSummaries(t *testing.T) {
	base := &Summary{
		Date: "2026-08-01T00:00:00Z",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA-8", NsPerOp: 1000, Metrics: map[string]float64{
				"ns/op": 1000, "evaluations/op": 200, "B/op": 512,
			}},
			{Name: "BenchmarkGone-8", NsPerOp: 5, Metrics: map[string]float64{"ns/op": 5}},
		},
	}
	cand := &Summary{
		Date: "2026-08-05T00:00:00Z",
		Benchmarks: []Benchmark{
			{Name: "BenchmarkA-8", NsPerOp: 500, Metrics: map[string]float64{
				"ns/op": 500, "evaluations/op": 100, "allocs/op": 9,
			}},
			{Name: "BenchmarkNew-8", NsPerOp: 7, Metrics: map[string]float64{"ns/op": 7}},
		},
	}
	var out strings.Builder
	if shared, _ := compareSummaries(&out, base, cand, nil); shared != 1 {
		t.Fatalf("shared = %d, want 1", shared)
	}
	text := out.String()
	for _, want := range []string{
		"BenchmarkA-8",
		"-50.0%", // both ns/op and evaluations/op halved
		"evaluations/op",
		"only in baseline:  BenchmarkGone-8",
		"only in candidate: BenchmarkNew-8",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("compare output missing %q:\n%s", want, text)
		}
	}
	// allocs/op exists only in the candidate, B/op only in the
	// baseline: neither is a shared unit, so neither may be printed.
	for _, reject := range []string{"allocs/op", "B/op"} {
		if strings.Contains(text, reject) {
			t.Errorf("compare output shows unshared unit %q:\n%s", reject, text)
		}
	}
}

func TestRunCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	old := write("old.json", `{"date":"d1","benchmarks":[{"name":"BenchmarkX-8","ns_per_op":10,"metrics":{"ns/op":10}}]}`)
	new_ := write("new.json", `{"date":"d2","benchmarks":[{"name":"BenchmarkX-8","ns_per_op":20,"metrics":{"ns/op":20}}]}`)

	var out, errOut strings.Builder
	if err := run(old, 0, 0, 0, []string{new_}, strings.NewReader(""), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "+100.0%") {
		t.Fatalf("file-vs-file compare output:\n%s", out.String())
	}

	// Candidate from stdin bench text.
	out.Reset()
	if err := run(old, 0, 0, 0, nil, strings.NewReader("BenchmarkX-8  3  5 ns/op\nPASS\n"), &out, &errOut); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "-50.0%") {
		t.Fatalf("file-vs-stdin compare output:\n%s", out.String())
	}

	// Disjoint snapshots are an error, not a silent all-clear.
	disjoint := write("disjoint.json", `{"date":"d3","benchmarks":[{"name":"BenchmarkY-8","ns_per_op":1,"metrics":{"ns/op":1}}]}`)
	out.Reset()
	if err := run(old, 0, 0, 0, []string{disjoint}, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("disjoint snapshots should error")
	}

	// Missing or corrupt baseline files error out.
	if err := run(dir+"/missing.json", 0, 0, 0, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("missing baseline should error")
	}
	corrupt := write("corrupt.json", "{not json")
	if err := run(corrupt, 0, 0, 0, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("corrupt baseline should error")
	}
}

// TestFailOverGate: -fail-over turns an ns/op regression past the
// threshold into a non-zero exit, tolerates regressions under it, and
// never fires on improvements.
func TestFailOverGate(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := dir + "/" + name
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	base := write("base.json",
		`{"date":"d1","benchmarks":[{"name":"BenchmarkX-8","ns_per_op":100,"metrics":{"ns/op":100}}]}`)

	var out, errOut strings.Builder
	// +50% regression over a 10% gate fails and names the benchmark.
	err := run(base, 10, 0, 0, nil, strings.NewReader("BenchmarkX-8  3  150 ns/op\nPASS\n"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkX-8") {
		t.Fatalf("regression past the gate returned %v", err)
	}
	// +5% under a 10% gate passes.
	out.Reset()
	if err := run(base, 10, 0, 0, nil, strings.NewReader("BenchmarkX-8  3  105 ns/op\nPASS\n"), &out, &errOut); err != nil {
		t.Fatalf("small regression under the gate failed: %v", err)
	}
	// An improvement passes.
	out.Reset()
	if err := run(base, 10, 0, 0, nil, strings.NewReader("BenchmarkX-8  3  50 ns/op\nPASS\n"), &out, &errOut); err != nil {
		t.Fatalf("improvement failed the gate: %v", err)
	}
	// -fail-over without -compare, and negative values, are usage errors.
	if err := run("", 10, 0, 0, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("-fail-over without -compare accepted")
	}
	if err := run(base, -1, 0, 0, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("negative -fail-over accepted")
	}
}

// TestFailAllocsOverGate: -fail-allocs-over gates the allocs/op column
// the way -fail-over gates ns/op — a regression past the threshold
// fails, one under it or an improvement passes, and benchmarks without
// allocation data are ignored rather than tripping the gate.
func TestFailAllocsOverGate(t *testing.T) {
	dir := t.TempDir()
	base := dir + "/base.json"
	if err := os.WriteFile(base, []byte(
		`{"date":"d1","benchmarks":[{"name":"BenchmarkX-8","ns_per_op":100,"metrics":{"ns/op":100,"allocs/op":10}}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	// 10 -> 15 allocs/op is +50% over a 10% gate: fail, naming the column.
	err := run(base, 0, 10, 0, nil,
		strings.NewReader("BenchmarkX-8  3  100 ns/op  500 B/op  15 allocs/op\nPASS\n"), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") || !strings.Contains(err.Error(), "BenchmarkX-8") {
		t.Fatalf("allocs regression past the gate returned %v", err)
	}
	// 10 -> 10 passes; 10 -> 5 (an improvement) passes.
	for _, allocs := range []string{"10", "5"} {
		out.Reset()
		if err := run(base, 0, 10, 0, nil,
			strings.NewReader("BenchmarkX-8  3  100 ns/op  500 B/op  "+allocs+" allocs/op\nPASS\n"), &out, &errOut); err != nil {
			t.Fatalf("allocs/op=%s failed a 10%% gate: %v", allocs, err)
		}
	}
	// A candidate without -benchmem columns shares no allocs data; the
	// gate has nothing to measure and stays quiet.
	out.Reset()
	if err := run(base, 0, 10, 0, nil,
		strings.NewReader("BenchmarkX-8  3  100 ns/op\nPASS\n"), &out, &errOut); err != nil {
		t.Fatalf("candidate without allocs data tripped the gate: %v", err)
	}
	// Usage errors mirror -fail-over.
	if err := run("", 0, 10, 0, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("-fail-allocs-over without -compare accepted")
	}
	if err := run(base, 0, -1, 0, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("negative -fail-allocs-over accepted")
	}
}

// TestFailBytesOverGate: -fail-bytes-over gates the B/op column the way
// -fail-allocs-over gates allocs/op, and fires on its own: a benchmark
// whose allocations grow in size but not in number fails it.
func TestFailBytesOverGate(t *testing.T) {
	dir := t.TempDir()
	base := dir + "/base.json"
	if err := os.WriteFile(base, []byte(
		`{"date":"d1","benchmarks":[{"name":"BenchmarkX-8","ns_per_op":100,"metrics":{"ns/op":100,"B/op":1000,"allocs/op":4}}]}`,
	), 0o644); err != nil {
		t.Fatal(err)
	}

	var out, errOut strings.Builder
	// 1000 -> 2000 B/op at the same 4 allocs/op is +100% over a 10% gate:
	// it fails naming the column, and the allocs gate alone passes.
	doubled := "BenchmarkX-8  3  100 ns/op  2000 B/op  4 allocs/op\nPASS\n"
	err := run(base, 0, 10, 10, nil, strings.NewReader(doubled), &out, &errOut)
	if err == nil || !strings.Contains(err.Error(), "B/op") || !strings.Contains(err.Error(), "BenchmarkX-8") {
		t.Fatalf("bytes regression past the gate returned %v", err)
	}
	if err := run(base, 0, 10, 0, nil, strings.NewReader(doubled), &out, &errOut); err != nil {
		t.Fatalf("allocs gate fired on a bytes-only regression: %v", err)
	}
	// 1000 -> 1050 is under the gate, and 1000 -> 500 is an improvement.
	for _, bytes := range []string{"1050", "500"} {
		out.Reset()
		if err := run(base, 0, 0, 10, nil,
			strings.NewReader("BenchmarkX-8  3  100 ns/op  "+bytes+" B/op  4 allocs/op\nPASS\n"), &out, &errOut); err != nil {
			t.Fatalf("B/op=%s failed a 10%% gate: %v", bytes, err)
		}
	}
	// A candidate without -benchmem columns has nothing to gate.
	if err := run(base, 0, 0, 10, nil,
		strings.NewReader("BenchmarkX-8  3  100 ns/op\nPASS\n"), &out, &errOut); err != nil {
		t.Fatalf("candidate without bytes data tripped the gate: %v", err)
	}
	// Usage errors mirror -fail-over.
	if err := run("", 0, 0, 10, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("-fail-bytes-over without -compare accepted")
	}
	if err := run(base, 0, 0, -1, nil, strings.NewReader(""), &out, &errOut); err == nil {
		t.Fatal("negative -fail-bytes-over accepted")
	}
}

// TestReadSummaryArchiveFallback: a bare snapshot name missing from the
// working directory resolves against results/bench/, where the repo
// archives its BENCH_*.json files; explicit paths never fall back.
func TestReadSummaryArchiveFallback(t *testing.T) {
	dir := t.TempDir()
	oldArchive := benchArchive
	benchArchive = dir + "/results/bench"
	t.Cleanup(func() { benchArchive = oldArchive })
	if err := os.MkdirAll(benchArchive, 0o755); err != nil {
		t.Fatal(err)
	}
	body := `{"date":"d1","benchmarks":[{"name":"BenchmarkX-8","ns_per_op":10,"metrics":{"ns/op":10}}]}`
	if err := os.WriteFile(benchArchive+"/BENCH_seed.json", []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}

	sum, err := readSummary("BENCH_seed.json")
	if err != nil {
		t.Fatalf("archive fallback failed: %v", err)
	}
	if len(sum.Benchmarks) != 1 || sum.Benchmarks[0].Name != "BenchmarkX-8" {
		t.Fatalf("wrong snapshot loaded: %+v", sum)
	}

	// A name in neither place still errors.
	if _, err := readSummary("BENCH_nope.json"); err == nil {
		t.Fatal("missing snapshot did not error")
	}
	// An explicit relative path does not consult the archive.
	if _, err := readSummary("sub/BENCH_seed.json"); err == nil {
		t.Fatal("pathed name fell back to the archive")
	}
}

// TestParseFoldsRepeats: the rows `go test -count N` repeats for one
// name fold into one row, in the first row's place, holding each unit's
// median, so one slow run among five does not move the gated value.
func TestParseFoldsRepeats(t *testing.T) {
	in := `BenchmarkWALAppend/none    1000    3100 ns/op    400 B/op    4 allocs/op
BenchmarkWALAppend/always  1000   90000 ns/op    500 B/op    6 allocs/op
BenchmarkWALAppend/none    1000    6535 ns/op    400 B/op    4 allocs/op
BenchmarkWALAppend/none    1000    3200 ns/op    410 B/op    4 allocs/op
BenchmarkWALAppend/none    2000    2900 ns/op    400 B/op    5 allocs/op
BenchmarkWALAppend/always  1000   70000 ns/op    500 B/op    6 allocs/op
`
	sum, err := parse(strings.NewReader(in), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Benchmarks) != 2 || sum.Benchmarks[0].Name != "BenchmarkWALAppend/none" {
		t.Fatalf("folded rows = %+v", sum.Benchmarks)
	}
	none, always := sum.Benchmarks[0], sum.Benchmarks[1]
	// Four rows: the median is the mean of the two middle values.
	if none.NsPerOp != 3150 || none.Metrics["ns/op"] != 3150 || none.Metrics["B/op"] != 400 ||
		none.Metrics["allocs/op"] != 4 || none.Iterations != 1000 {
		t.Fatalf("none folded to %+v", none)
	}
	if always.NsPerOp != 80000 || always.Metrics["allocs/op"] != 6 {
		t.Fatalf("always folded to %+v", always)
	}
	// A single row passes through untouched.
	one, err := parse(strings.NewReader(sample), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Benchmarks) != 3 || one.Benchmarks[0].NsPerOp != 11093907 {
		t.Fatalf("unrepeated rows changed: %+v", one.Benchmarks)
	}
}
