package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/placemonclient"
)

// pass is everything one run of a workload measured.
type pass struct {
	traced bool
	setups []setupRun
	ops    []*op
	// completed counts operations answered inside the selected windows.
	completed int
	// daemonCPU and genCPU are the daemons' and this process's CPU over
	// the selected windows (every window with wholeLoadCPU); heap is the
	// daemons' live heap after the load phase, heapOneGC their heap after
	// a single forced GC, which still holds sync.Pool caches.
	daemonCPU    time.Duration
	genCPU       time.Duration
	wholeLoadCPU bool
	heap         uint64
	heapOneGC    uint64
	// start is when the load phase began; windows are its one-second
	// windows, and steal and contention the means over the selected ones.
	start      time.Time
	windows    []window
	steal      float64
	contention float64
	loadWall   float64
	checks     []check
	// operations holds the medians of the operations only one workload
	// issues (diagnosis_p50_ms, place_s, replace_s, recovery_s).
	operations map[string]float64
	// layers holds per-layer values measured outside the trace records:
	// /metrics counters, WAL files, and facade calls timed here.
	layers map[string]float64
	// entry holds /debug/traces from the node the senders talk to, others
	// from the rest of the cluster (traced passes only).
	entry, others []traceRec
	walSync       string
}

// check is one post-load correctness check.
type check struct {
	Name string `json:"name"`
	OK   bool   `json:"ok"`
	Err  string `json:"error,omitempty"`
}

func (p *pass) addCheck(name string, err error) {
	c := check{Name: name, OK: err == nil}
	if err != nil {
		c.Err = err.Error()
	}
	p.checks = append(p.checks, c)
}

// finishOp marks an op ok when it got a reply within the SLO and its
// check passed.
func finishOp(o *op, checkErr error) {
	switch {
	case o.err != nil:
		o.checkErr = o.err
	case o.latency > slo:
		o.checkErr = fmt.Errorf("reply after %s, past the %s limit", o.latency, slo)
	default:
		o.checkErr = checkErr
	}
	o.ok = o.checkErr == nil
}

// verdict counts operations and checks attempted and failed.
func (p *pass) verdict() (correct bool, attempted, failed int) {
	attempted = len(p.ops) + len(p.checks)
	for _, o := range p.ops {
		if !o.ok {
			failed++
		}
	}
	for _, c := range p.checks {
		if !c.OK {
			failed++
		}
	}
	return failed == 0, attempted, failed
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns the latencies in ms of the ok ops of a kind; with
// selectedOnly, of those due in a selected window.
func (p *pass) latencies(kind opKind, selectedOnly bool) []float64 {
	var out []float64
	for _, o := range p.ops {
		if o.kind != kind || !o.ok {
			continue
		}
		if k := p.windowOf(o.due); selectedOnly && (k < 0 || !p.windows[k].Selected) {
			continue
		}
		out = append(out, ms(o.latency))
	}
	return out
}

// endToEnd computes the end-to-end metrics. Latency and CPU come from the
// load phase's selected (least contended) windows; see measureLoad.
func (p *pass) endToEnd() map[string]float64 {
	_, attempted, failed := p.verdict()
	perOp := 0.0
	if p.completed > 0 {
		perOp = float64(p.daemonCPU) / float64(time.Microsecond) / float64(p.completed)
	}
	return map[string]float64{
		"ingest_p50_ms": median(p.latencies(opIngest, true)),
		"cpu_us_per_op": perOp,
		"heap_mb":       float64(p.heap) / (1 << 20),
		"ops_ok_frac":   float64(attempted-failed) / float64(attempted),
		"setup_s":       p.setupSeconds(),
	}
}

// usage is one reading of the CPU counters a load phase is measured by.
type usage struct {
	daemon, gen time.Duration
	stat        cpuStat
}

func readUsage(nodes []*daemon) (usage, error) {
	var u usage
	var err error
	if u.daemon, err = fleetCPU(nodes); err != nil {
		return u, err
	}
	if u.gen, err = procCPU(os.Getpid()); err != nil {
		return u, err
	}
	u.stat, err = readSteal()
	return u, err
}

func fleetCPU(nodes []*daemon) (time.Duration, error) {
	var sum time.Duration
	for _, d := range nodes {
		c, err := d.cpuTime()
		if err != nil {
			return 0, err
		}
		sum += c
	}
	return sum, nil
}

// cpuStat is the aggregate cpu line of /proc/stat, in ticks: steal, the
// guest's busy time (user, nice, system, irq, softirq; guest time is
// already inside user), and the total of the first eight fields.
type cpuStat struct{ steal, busy, total uint64 }

func readSteal() (cpuStat, error) {
	raw, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuStat{}, err
	}
	line, _, _ := strings.Cut(string(raw), "\n")
	return parseCPUStat(line)
}

// parseCPUStat reads "cpu user nice system idle iowait irq softirq steal
// ...".
func parseCPUStat(line string) (cpuStat, error) {
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuStat{}, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	var s cpuStat
	for i := 1; i <= 8; i++ {
		v, err := strconv.ParseUint(f[i], 10, 64)
		if err != nil {
			return cpuStat{}, err
		}
		s.total += v
		switch i {
		case 1, 2, 3, 6, 7:
			s.busy += v
		case 8:
			s.steal = v
		}
	}
	return s, nil
}

// share is the steal share of all CPU time between two readings, idle
// included: the host steal share the run record reports.
func (s cpuStat) share(before cpuStat) float64 {
	if s.total == before.total {
		return 0
	}
	return float64(s.steal-before.steal) / float64(s.total-before.total)
}

// contention is the share of the CPU time the guest wanted between two
// readings that the host withheld: steal over steal plus busy time. Steal
// builds up only while a vCPU wants to run, so its share of all ticks
// rises with the guest's own demand; this ratio does not, and is what
// windows and set-ups are ranked by.
func (s cpuStat) contention(before cpuStat) float64 {
	steal, busy := s.steal-before.steal, s.busy-before.busy
	if steal+busy == 0 {
		return 0
	}
	return float64(steal) / float64(steal+busy)
}

// adminClient is a client for set-up, priming and checks; it never runs
// during a load phase.
func adminClient(url string) (*placemonclient.Client, error) {
	return placemonclient.New(placemonclient.Config{BaseURL: url})
}

// fetchTraces reads a daemon's whole /debug/traces ring.
func fetchTraces(url string) ([]traceRec, error) {
	resp, err := http.Get(url + "/debug/traces")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /debug/traces answered %d", resp.StatusCode)
	}
	var out struct {
		Traces []traceRec `json:"traces"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, fmt.Errorf("decode /debug/traces: %w", err)
	}
	return out.Traces, nil
}

// fetchMetrics reads a daemon's /metrics text.
func fetchMetrics(url string) ([]byte, error) {
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET /metrics answered %d", resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// traceBuffer sizes the daemon's trace ring on traced passes so it holds
// every request of the pass; 0 keeps the facade default.
func traceBuffer(traced bool, requests int) int {
	if !traced {
		return 0
	}
	return requests + 4096
}

// prime sends each tenant one all-up batch through the given senders, so
// every connection has reported before the load phase (the model starts
// from all up) and each sender's keep-alive connection is open.
func prime(senders []*sender, tenants []*tenant) error {
	for i, t := range tenants {
		reps := make([]placemonclient.Report, len(t.paths))
		for c := range reps {
			reps[c] = placemonclient.Report{Connection: c, Up: true}
		}
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		_, err := senders[i%len(senders)].client.Scenario(t.id).ReportObservations(ctx,
			placemonclient.ObservationBatch{Time: -1, Reports: reps})
		cancel()
		if err != nil {
			return fmt.Errorf("prime %s: %w", t.id, err)
		}
	}
	return nil
}

// createTenants creates every tenant's scenario through one client.
func createTenants(c *placemonclient.Client, tenants []*tenant) error {
	for _, t := range tenants {
		ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
		_, err := c.CreateScenario(ctx, t.id, t.spec)
		cancel()
		if err != nil {
			return fmt.Errorf("create %s: %w", t.id, err)
		}
	}
	return nil
}

// stopAll stops every daemon and reports the first failure.
func stopAll(nodes []*daemon) error {
	var first error
	for _, d := range nodes {
		if d == nil {
			continue
		}
		if err := d.stop(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
