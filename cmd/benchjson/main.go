// Command benchjson converts `go test -bench` text output into a
// machine-readable JSON summary, so benchmark runs can be archived and
// diffed across commits (the repo's perf trajectory):
//
//	go test -run NONE -bench=. -benchmem . | go run ./cmd/benchjson > BENCH_2026-08-05.json
//
// It reads the benchmark output on stdin and writes one JSON document on
// stdout; context lines (goos/goarch/cpu/pkg) are captured as metadata,
// and every `-benchmem` column plus any custom metric (`value unit`
// pairs) lands in the per-benchmark metrics map.
//
// With -compare, it diffs two archived snapshots instead:
//
//	go run ./cmd/benchjson -compare BENCH_old.json BENCH_new.json
//	go test -run NONE -bench=. . | go run ./cmd/benchjson -compare BENCH_old.json
//
// The baseline comes from the -compare file; the candidate is the second
// positional argument, or stdin parsed as fresh `go test -bench` text
// when no second file is given. For every benchmark present in both
// snapshots it prints ns/op and each shared metric (B/op, allocs/op,
// evaluations/op, ...) side by side with the relative change.
//
// With -fail-over N (percent, compare mode only) the command exits
// non-zero if any shared benchmark's ns/op regressed by more than N%, so
// CI can gate merges on archived baselines:
//
//	go test -run NONE -bench=Registry . | go run ./cmd/benchjson -compare BENCH_seed.json -fail-over 10
//
// -fail-allocs-over N is the same gate for the allocs/op column (both
// snapshots must carry -benchmem data for it to see anything), guarding
// allocation-reduction work against silent backsliding:
//
//	go test -run NONE -bench=Registry -benchmem . | go run ./cmd/benchjson -compare BENCH_streaming.json -fail-allocs-over 10
//
// -fail-bytes-over N gates the B/op column the same way, which catches
// allocations that grow without growing in number.
//
// Rows that repeat one benchmark name, as `go test -count N` prints them,
// are folded into one row holding each unit's median before a snapshot
// is written or compared.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Summary is the output document.
type Summary struct {
	// Date is the run timestamp (RFC 3339).
	Date string `json:"date"`
	// Goos, Goarch, CPU, and Pkg echo the benchmark context lines.
	Goos   string `json:"goos,omitempty"`
	Goarch string `json:"goarch,omitempty"`
	CPU    string `json:"cpu,omitempty"`
	Pkg    string `json:"pkg,omitempty"`
	// Benchmarks are the parsed result lines in input order.
	Benchmarks []Benchmark `json:"benchmarks"`
}

// Benchmark is one parsed result line.
type Benchmark struct {
	// Name is the full benchmark name including sub-benchmark path and
	// the -N GOMAXPROCS suffix, e.g. "BenchmarkFig4/Tiscali-8".
	Name string `json:"name"`
	// Iterations is b.N for the reported run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the headline metric.
	NsPerOp float64 `json:"ns_per_op"`
	// Metrics holds every unit → value pair on the line, including
	// "B/op" and "allocs/op" under -benchmem and any b.ReportMetric
	// extras (ns/op is repeated here for uniform consumers).
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	compare := flag.String("compare", "", "baseline snapshot JSON; diff against a second snapshot file or stdin bench text")
	failOver := flag.Float64("fail-over", 0, "with -compare: exit non-zero if any shared benchmark's ns/op regressed by more than this percentage (0 disables)")
	failAllocsOver := flag.Float64("fail-allocs-over", 0, "with -compare: exit non-zero if any shared benchmark's allocs/op regressed by more than this percentage (0 disables)")
	failBytesOver := flag.Float64("fail-bytes-over", 0, "with -compare: exit non-zero if any shared benchmark's B/op regressed by more than this percentage (0 disables)")
	flag.Parse()
	if err := run(*compare, *failOver, *failAllocsOver, *failBytesOver, flag.Args(), os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// gate is one -fail-*-over flag: the compare fails when a shared
// benchmark's unit column regressed by more than margin percent. A zero
// margin disables it.
type gate struct {
	flag, unit string
	margin     float64
}

func run(compare string, failOver, failAllocsOver, failBytesOver float64, args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	gates := []gate{
		{"-fail-over", "ns/op", failOver},
		{"-fail-allocs-over", "allocs/op", failAllocsOver},
		{"-fail-bytes-over", "B/op", failBytesOver},
	}
	for _, g := range gates {
		if g.margin < 0 {
			return fmt.Errorf("%s must be non-negative, got %v", g.flag, g.margin)
		}
		if g.margin != 0 && compare == "" {
			return fmt.Errorf("%s needs -compare", g.flag)
		}
	}
	if compare == "" {
		sum, err := parse(stdin, time.Now())
		if err != nil {
			return err
		}
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "benchjson: %d benchmarks\n", len(sum.Benchmarks))
		return nil
	}
	base, err := readSummary(compare)
	if err != nil {
		return err
	}
	var cand *Summary
	if len(args) > 0 {
		if cand, err = readSummary(args[0]); err != nil {
			return err
		}
	} else if cand, err = parse(stdin, time.Now()); err != nil {
		return err
	}
	shared, failures := compareSummaries(stdout, base, cand, gates)
	if shared == 0 {
		return fmt.Errorf("no benchmark names in common between the two snapshots")
	}
	if len(failures) > 0 {
		return errors.New(strings.Join(failures, "; "))
	}
	return nil
}

// benchArchive is where the repo keeps its BENCH_*.json snapshots; a
// bare snapshot name that does not exist in the working directory is
// looked up there, so `-compare BENCH_<date>.json` keeps working from
// the repo root after the snapshots moved out of it.
var benchArchive = filepath.Join("results", "bench")

// readSummary loads a snapshot previously written by this command.
func readSummary(path string) (*Summary, error) {
	raw, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) && filepath.Base(path) == path {
		if archived, archErr := os.ReadFile(filepath.Join(benchArchive, path)); archErr == nil {
			raw, err = archived, nil
		}
	}
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(raw, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// compareSummaries prints, for every benchmark name present in both
// snapshots, each shared metric side by side with the relative change
// (negative = the candidate improved). It returns the number of shared
// benchmarks plus one message for each enabled gate whose column
// regressed past its margin in some benchmark, naming them; names unique
// to one side are listed at the end so a renamed benchmark is not
// mistaken for a regression-free run.
func compareSummaries(w io.Writer, base, cand *Summary, gates []gate) (int, []string) {
	old := make(map[string]Benchmark, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		old[b.Name] = b
	}
	fmt.Fprintf(w, "baseline %s vs candidate %s\n", base.Date, cand.Date)
	shared := 0
	var onlyNew []string
	regressed := make([][]string, len(gates))
	seen := map[string]bool{}
	for _, nb := range cand.Benchmarks {
		seen[nb.Name] = true
		ob, ok := old[nb.Name]
		if !ok {
			onlyNew = append(onlyNew, nb.Name)
			continue
		}
		shared++
		fmt.Fprintln(w, nb.Name)
		for _, unit := range sharedUnits(ob, nb) {
			o, n := ob.Metrics[unit], nb.Metrics[unit]
			fmt.Fprintf(w, "    %-18s %16s -> %-16s %8s\n",
				unit, trimFloat(o), trimFloat(n), relChange(o, n))
		}
		for i, g := range gates {
			// A column the baseline lacks reads 0 and is not gated.
			o, n := ob.Metrics[g.unit], nb.Metrics[g.unit]
			if g.margin > 0 && o > 0 && 100*(n-o)/o > g.margin {
				regressed[i] = append(regressed[i], nb.Name)
			}
		}
	}
	var onlyOld []string
	for _, ob := range base.Benchmarks {
		if !seen[ob.Name] {
			onlyOld = append(onlyOld, ob.Name)
		}
	}
	for _, name := range onlyOld {
		fmt.Fprintf(w, "only in baseline:  %s\n", name)
	}
	for _, name := range onlyNew {
		fmt.Fprintf(w, "only in candidate: %s\n", name)
	}
	var failures []string
	for i, names := range regressed {
		if len(names) > 0 {
			failures = append(failures, fmt.Sprintf("%d benchmark(s) regressed more than %v%% in %s: %s",
				len(names), gates[i].margin, gates[i].unit, strings.Join(names, ", ")))
		}
	}
	return shared, failures
}

// sharedUnits returns the metric units both lines report, ns/op first
// and the rest sorted, so diffs are stable across runs.
func sharedUnits(a, b Benchmark) []string {
	units := make([]string, 0, len(b.Metrics))
	for u := range b.Metrics {
		if u == "ns/op" {
			continue
		}
		if _, ok := a.Metrics[u]; ok {
			units = append(units, u)
		}
	}
	sort.Strings(units)
	return append([]string{"ns/op"}, units...)
}

func trimFloat(v float64) string {
	return strconv.FormatFloat(v, 'f', -1, 64)
}

// relChange formats (new-old)/old as a signed percentage.
func relChange(o, n float64) string {
	if o == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f%%", 100*(n-o)/o)
}

// parse consumes `go test -bench` output and builds the summary.
func parse(r io.Reader, now time.Time) (*Summary, error) {
	sum := &Summary{Date: now.Format(time.RFC3339), Benchmarks: []Benchmark{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			sum.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			sum.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "cpu:"):
			sum.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "pkg:"):
			sum.Pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "Benchmark"):
			b, ok, err := parseBenchLine(line)
			if err != nil {
				return nil, err
			}
			if ok {
				sum.Benchmarks = append(sum.Benchmarks, b)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	sum.Benchmarks = foldRepeats(sum.Benchmarks)
	return sum, nil
}

// foldRepeats folds the rows one benchmark name repeats (`go test -count
// N` prints N) into one row at the first row's place, holding each
// unit's median over the rows that report it, and the median iteration
// count. A gate then compares typical runs instead of whichever run
// came last, so one run slowed by a noisy neighbour does not fail it.
func foldRepeats(rows []Benchmark) []Benchmark {
	byName := map[string][]Benchmark{}
	var names []string
	for _, b := range rows {
		if _, ok := byName[b.Name]; !ok {
			names = append(names, b.Name)
		}
		byName[b.Name] = append(byName[b.Name], b)
	}
	if len(names) == len(rows) {
		return rows
	}
	out := make([]Benchmark, 0, len(names))
	for _, name := range names {
		reps := byName[name]
		if len(reps) == 1 {
			out = append(out, reps[0])
			continue
		}
		b := Benchmark{Name: name, Metrics: map[string]float64{}}
		iters := make([]float64, len(reps))
		values := map[string][]float64{}
		for i, r := range reps {
			iters[i] = float64(r.Iterations)
			for unit, v := range r.Metrics {
				values[unit] = append(values[unit], v)
			}
		}
		b.Iterations = int64(median(iters))
		for unit, vs := range values {
			b.Metrics[unit] = median(vs)
		}
		b.NsPerOp = b.Metrics["ns/op"]
		out = append(out, b)
	}
	return out
}

// median returns the middle of vs, or the mean of the two middle values
// when there is an even number; it sorts vs.
func median(vs []float64) float64 {
	sort.Float64s(vs)
	n := len(vs)
	if n%2 == 1 {
		return vs[n/2]
	}
	return (vs[n/2-1] + vs[n/2]) / 2
}

// parseBenchLine parses one result line of the form
//
//	BenchmarkName-8  100  12345 ns/op  678 B/op  9 allocs/op
//
// Lines without an iteration count (e.g. a bare "BenchmarkX" progress
// line under -v) report ok=false rather than an error.
func parseBenchLine(line string) (Benchmark, bool, error) {
	fields := strings.Fields(line)
	if len(fields) < 4 || len(fields)%2 != 0 {
		return Benchmark{}, false, nil
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return Benchmark{}, false, nil
	}
	b := Benchmark{
		Name:       fields[0],
		Iterations: iters,
		Metrics:    map[string]float64{},
	}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return Benchmark{}, false, fmt.Errorf("line %q: bad value %q: %v", line, fields[i], err)
		}
		unit := fields[i+1]
		b.Metrics[unit] = v
		if unit == "ns/op" {
			b.NsPerOp = v
		}
	}
	if _, ok := b.Metrics["ns/op"]; !ok {
		return Benchmark{}, false, nil
	}
	return b, true, nil
}
