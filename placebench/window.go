package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	placemon "repro"
	"repro/placemonclient"
)

const (
	// quietContention is the contention (see cpuStat.contention) at or
	// below which a set-up counts as quiet.
	quietContention = 0.03
	// loadFactor is a load phase's length as a multiple of --seconds:
	// the measured windows are the least contended --seconds of it.
	loadFactor = 2.5
)

// window is one second of a load phase: the host's steal share and
// contention over it, the CPU the daemons and this process used in it, and
// the operations answered in it.
type window struct {
	Steal      float64       `json:"steal"`
	Contention float64       `json:"contention"`
	Daemon     time.Duration `json:"daemon_cpu_ns"`
	Gen        time.Duration `json:"generator_cpu_ns"`
	Ops        int           `json:"ops"`
	Selected   bool          `json:"selected"`
}

// setupRun is one timed set-up of a workload.
type setupRun struct {
	Seconds    float64 `json:"seconds"`
	Steal      float64 `json:"steal"`
	Contention float64 `json:"contention"`
	Selected   bool    `json:"selected"`
}

const (
	// setupReps set-ups make each run's setup_s, their median; up to
	// maxSetupReps are made to find that many on a quiet host.
	setupReps    = 3
	maxSetupReps = 6
)

// quietest returns the indices of the k entries with the least
// contention, earlier entries first among equals.
func quietest(contention []float64, k int) []int {
	order := make([]int, len(contention))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return contention[order[a]] < contention[order[b]] })
	return order[:min(k, len(order))]
}

// timeSetups times the workload's set-up the way measureLoad times its
// load: up brings fresh daemons up with every scenario created and returns
// their teardown; it runs until setupReps runs saw at most quietContention,
// or maxSetupReps ran, and setup_s is the median of the setupReps least
// contended. Every run but the last is torn down; the last one serves the
// load phase.
func (p *pass) timeSetups(up func(rep int) (down func() error, err error)) error {
	var down func() error
	quiet := 0
	for rep := 0; rep < maxSetupReps && quiet < setupReps; rep++ {
		if down != nil {
			if err := down(); err != nil {
				return err
			}
		}
		st0, err := readSteal()
		if err != nil {
			return err
		}
		t0 := time.Now()
		if down, err = up(rep); err != nil {
			return err
		}
		run := setupRun{Seconds: since(t0)}
		st1, err := readSteal()
		if err != nil {
			return err
		}
		run.Steal, run.Contention = st1.share(st0), st1.contention(st0)
		if run.Contention <= quietContention {
			quiet++
		}
		p.setups = append(p.setups, run)
	}
	cont := make([]float64, len(p.setups))
	for i, r := range p.setups {
		cont[i] = r.Contention
	}
	for _, i := range quietest(cont, setupReps) {
		p.setups[i].Selected = true
	}
	return nil
}

// setupSeconds is setup_s: the median of the selected set-ups.
func (p *pass) setupSeconds() float64 {
	var s []float64
	for _, r := range p.setups {
		if r.Selected {
			s = append(s, r.Seconds)
		}
	}
	return median(s)
}

// startNode brings up one daemon with every tenant created.
func startNode(bin string, tenants []*tenant, traceBuf int) (*daemon, error) {
	d, err := startDaemon(bin, daemonConfig{Addr: "127.0.0.1:0", ServerConfig: placemon.ServerConfig{TraceBuffer: traceBuf}})
	if err != nil {
		return nil, err
	}
	err = d.waitHealthy(30 * time.Second)
	if err == nil {
		var admin *placemonclient.Client
		if admin, err = adminClient(d.url); err == nil {
			err = createTenants(admin, tenants)
		}
	}
	if err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// measureLoad runs a load phase of loadWindows(seconds, factor)
// one-second windows and measures it over the `seconds` windows in which
// the host withheld the least of the CPU the guest wanted.
//
// CPU steal on the shared host comes in episodes of seconds to minutes:
// a one-second window's median ingest latency rose up to 2.5× and the
// daemons' CPU per operation about 30 % while the host stole 15–23 % of
// the CPU, so whole-run figures moved with whatever episode a run fell
// into. Latency and CPU therefore come from the least contended windows;
// the run record keeps every window's steal, contention, CPU and
// operations, and the whole-run tails. Windows are ranked by contention,
// not by steal's share of all ticks, which grows with the guest's own
// demand and so would drop the windows in which the daemon did extra
// work. The load itself always has the same length, so the work a run
// does — and the state it leaves, which heap_mb reads — does not depend
// on the host. A pass with wholeLoadCPU set takes cpu_us_per_op over every
// window instead (durable, so that its compaction is always counted).
//
// load(start) plays the workload from start and returns once every
// operation has ended; the workload's schedule ends with the load phase. The daemons'
// and this process's CPU and the host's steal are read at every window
// boundary.
func (p *pass) measureLoad(nodes []*daemon, seconds, factor float64, load func(start time.Time)) error {
	need := max(1, int(math.Ceil(seconds)))
	limit := loadWindows(seconds, factor)
	p.start = time.Now().Add(20 * time.Millisecond)
	var readErr error
	read := make(chan struct{})
	go func() {
		defer close(read)
		sleepUntil(p.start)
		prev, err := readUsage(nodes)
		if err != nil {
			readErr = err
			return
		}
		for k := 1; k <= limit; k++ {
			sleepUntil(p.start.Add(time.Duration(k) * time.Second))
			cur, err := readUsage(nodes)
			if err != nil {
				readErr = err
				return
			}
			p.windows = append(p.windows, window{
				Steal:      cur.stat.share(prev.stat),
				Contention: cur.stat.contention(prev.stat),
				Daemon:     cur.daemon - prev.daemon,
				Gen:        cur.gen - prev.gen,
			})
			prev = cur
		}
	}()
	load(p.start)
	p.loadWall = since(p.start)
	<-read
	if readErr != nil {
		return readErr
	}
	p.selectWindows(need)
	for _, d := range nodes {
		one, live, err := d.heapBytes()
		if err != nil {
			return fmt.Errorf("read daemon heap: %w", err)
		}
		p.heapOneGC += one
		p.heap += live
	}
	return nil
}

// loadWindows is the length of a load phase in one-second windows.
func loadWindows(seconds, factor float64) int {
	return max(1, int(math.Ceil(seconds*factor)))
}

// selectWindows counts the operations answered in each window, marks the
// need least contended windows, and sums CPU and answered operations over
// them (over every window when wholeLoadCPU is set).
func (p *pass) selectWindows(need int) {
	for _, o := range p.ops {
		if k := p.windowOf(o.done.Sub(p.start)); o.err == nil && k >= 0 {
			p.windows[k].Ops++
		}
	}
	cont := make([]float64, len(p.windows))
	for i, w := range p.windows {
		cont[i] = w.Contention
	}
	sel := quietest(cont, need)
	for _, i := range sel {
		p.windows[i].Selected = true
		p.steal += p.windows[i].Steal / float64(len(sel))
		p.contention += p.windows[i].Contention / float64(len(sel))
	}
	for _, w := range p.windows {
		if w.Selected || p.wholeLoadCPU {
			p.daemonCPU += w.Daemon
			p.genCPU += w.Gen
			p.completed += w.Ops
		}
	}
}

// windowOf returns the window an offset from the load start falls in, or
// -1 outside the load phase.
func (p *pass) windowOf(off time.Duration) int {
	k := int(off / time.Second)
	if off < 0 || k >= len(p.windows) {
		return -1
	}
	return k
}

// procCPU is the CPU time a process's threads have run, summed from
// /proc/<pid>/task/*/schedstat, whose first field is the thread's run
// time in nanoseconds. utime and stime in /proc/<pid>/stat count the same
// time in 10 ms ticks, too coarse for one-second windows.
func procCPU(pid int) (time.Duration, error) {
	dir := fmt.Sprintf("/proc/%d/task", pid)
	tasks, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var sum time.Duration
	for _, t := range tasks {
		raw, err := os.ReadFile(dir + "/" + t.Name() + "/schedstat")
		if err != nil {
			continue // the thread exited between the listing and the read
		}
		ns, err := parseSchedstat(string(raw))
		if err != nil {
			return 0, err
		}
		sum += ns
	}
	return sum, nil
}

// parseSchedstat reads the run time from a schedstat line.
func parseSchedstat(line string) (time.Duration, error) {
	f := strings.Fields(line)
	if len(f) == 0 {
		return 0, fmt.Errorf("empty schedstat")
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	return time.Duration(ns), err
}
