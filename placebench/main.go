// Command placebench is the repository's end-to-end benchmark. It starts
// placemond daemons as child processes built from the repro facade
// (NewScenarioServer + Serve), drives them over HTTP through placemonclient
// from this single process with at most two sending threads and two
// connections, checks every answer against the facade's from-scratch
// results, and prints one JSON result line:
//
//	placebench --workload observe|durable|replan --seed N --seconds S --trace 0|1
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice, untraced and then traced, and the metrics are the
// per-layer ones (see README.md). The benchmark reads only the daemons'
// HTTP endpoints, /proc, and their WAL directories; it adds no
// instrumentation to the program.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// daemonEnv carries a daemon child's configuration. A process started with
// it set serves as a placemond daemon instead of running the benchmark.
const daemonEnv = "PLACEBENCH_DAEMON"

// metricDef declares one reported metric; the tables below mirror
// BENCHMARK.json (TestMetricTablesMatchBenchmarkJSON keeps them in step).
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics every untraced run reports. Each is measured on
// every workload: the operation-specific medians (diagnosis, place,
// re-place, recovery) are in the run record instead, because only one
// workload issues each of them.
var endToEnd = []metricDef{
	{"ingest_p50_ms", "ms"},
	{"cpu_us_per_op", "us"},
	{"heap_mb", "MiB"},
	{"ops_ok_frac", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the metrics every traced run reports. A layer the workload
// bypasses reads 0.
var perLayer = []metricDef{
	{"placemonclient.self_us", "us"},
	{"placemonclient.attempts_per_call", "count"},
	{"server.wire_us", "us"},
	{"server.decode_us", "us"},
	{"server.dedup_us", "us"},
	{"server.unstaged_us", "us"},
	{"server.diagnosis_us", "us"},
	{"server.queue_wait_ms", "ms"},
	{"server.replace_span_s", "s"},
	{"monitord.apply_us", "us"},
	{"monitord.diagnose_us", "us"},
	{"monitord.events_per_batch", "count"},
	{"wal.append_us", "us"},
	{"wal.fsyncs_per_batch", "count"},
	{"wal.fsync_us", "us"},
	{"wal.compactions", "count"},
	{"wal.snapshot_mb", "MiB"},
	{"wal.recovery_ms", "ms"},
	{"wal.records_replayed", "count"},
	{"cluster.forward_us", "us"},
	{"cluster.entry_self_us", "us"},
	{"placement.rounds_s", "s"},
	{"placement.build_s", "s"},
	{"placement.evaluations", "count"},
	{"placement.cold_place_s", "s"},
	{"placemon.spec_build_s", "s"},
	{"trace.joined_frac", "ratio"},
	{"trace.overhead.ingest_p50_ms", "ms"},
	{"trace.overhead.cpu_us_per_op", "us"},
	{"trace.overhead.heap_mb", "MiB"},
	{"trace.overhead.setup_s", "s"},
}

// workloads maps each --workload name to the function that runs it.
var workloads = map[string]func(*env) (*pass, error){
	"observe": runObserve,
	"durable": runDurable,
	"replan":  runReplan,
}

// env is what one workload pass needs from the command line and build.
type env struct {
	seed    int64
	seconds float64
	traced  bool
	// daemonBin is the executable started (with daemonEnv set) for each
	// daemon; placemonBin is the placemon CLI, used for fsck.
	daemonBin   string
	placemonBin string
	// scratch is a fresh directory for the pass's WAL files, on tmpfs
	// where there is one.
	scratch string
}

// result is the final stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	if cfg := os.Getenv(daemonEnv); cfg != "" {
		if err := runDaemon(cfg); err != nil {
			fmt.Fprintln(os.Stderr, "placebench daemon:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "placebench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("placebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: observe, durable, or replan")
	seed := fs.Int64("seed", 1, "seed all inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the load phase")
	traceFlag := fs.Int("trace", 0, "1 runs the workload untraced and then traced and reports per-layer metrics")
	recordDir := fs.String("record-dir", "", "directory the JSON run record is written to (default: none)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	runWorkload, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	// run.sh builds the placemon CLI next to the benchmark.
	e := &env{seed: *seed, seconds: *seconds, daemonBin: self, placemonBin: filepath.Join(filepath.Dir(self), "placemon")}

	base, err := runPass(runWorkload, e)
	if err != nil {
		return err
	}
	var traced *pass
	if *traceFlag == 1 {
		e.traced = true
		if traced, err = runPass(runWorkload, e); err != nil {
			return err
		}
	}
	if err := newRunRecord(*name, e, base, traced).write(os.Stderr, *recordDir); err != nil {
		return err
	}
	res := result{Metrics: map[string]metric{}}
	res.Correct, res.Attempted, res.Failed = base.verdict()
	if traced == nil {
		e2e := base.endToEnd()
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{e2e[m.name], m.unit}
		}
	} else {
		layers := traced.layerMetrics(base)
		for _, m := range perLayer {
			res.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
		c, a, f := traced.verdict()
		res.Correct, res.Attempted, res.Failed = res.Correct && c, res.Attempted+a, res.Failed+f
	}
	out, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// runPass runs one workload pass in a fresh scratch directory, removed
// afterwards.
func runPass(runWorkload func(*env) (*pass, error), e *env) (*pass, error) {
	dir, err := scratchDir()
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	e.scratch = dir
	return runWorkload(e)
}

// scratchDir makes the pass's WAL directory on tmpfs (/dev/shm) when it
// is available: fsync on a shared disk made group-commit ingest latency
// vary several-fold between identical runs, which no bound could absorb.
// Elsewhere it falls back to a directory under the working directory.
func scratchDir() (string, error) {
	if st, err := os.Stat("/dev/shm"); err == nil && st.IsDir() {
		if dir, err := os.MkdirTemp("/dev/shm", "placebench-"); err == nil {
			return dir, nil
		}
	}
	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(".bench_build", "wal-")
}

// hostInfo is the part of the run record that describes the machine.
type hostInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

func currentHost() hostInfo {
	return hostInfo{GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
}

// since is time.Since in seconds.
func since(t time.Time) float64 { return time.Since(t).Seconds() }
