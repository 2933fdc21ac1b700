package main

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"time"

	placemon "repro"
	"repro/placemonclient"
)

// The durable workload: a 3-node cluster, every node with a group-commit
// WAL on tmpfs. One hot scenario shaped like observe's is owned by a node
// other than the entry node, which proxies (ClusterProxy). Two senders
// write 150 batches/s to it through the entry node, so concurrent writers
// meet in the same scenario's critical section under group commit, and
// every batch crosses a peer forward. After the load phase the owner is
// SIGKILLed and restarted durableRestarts times. It bypasses placement and
// diagnosis reads.
//
// The WAL compacts in the background every 4,096 appended records, and a
// batch here appends about 1.3 (the batch and its events), so the 25 s
// load at --seconds 10 (3,750 batches) compacts the owner's log once,
// about 21 s in, on every run. cpu_us_per_op is taken over the whole load
// so that the compaction and the windows after it always count, heap_mb is
// read after it, and the restarts recover from its snapshot.
const (
	durableRate     = 150.0
	durableRestarts = 3
	walSync         = "group"
)

// clusterNodes names the cluster members; nodes[0] is the entry node.
var clusterNodes = []string{"a", "b", "c"}

// cluster is one running 3-node cluster and where it keeps its WALs.
type cluster struct {
	nodes   []*daemon
	configs []daemonConfig
}

func (c *cluster) node(id string) int {
	for i, n := range clusterNodes {
		if n == id {
			return i
		}
	}
	return -1
}

// startCluster starts the three nodes at fresh loopback ports and waits
// until all are healthy. walDir(node) gives each node's WAL directory;
// empty runs in memory.
func startCluster(bin string, walDir func(string) string, traceBuf int) (*cluster, error) {
	c := &cluster{nodes: make([]*daemon, len(clusterNodes))}
	addrs, err := freePorts(len(clusterNodes))
	if err != nil {
		return nil, err
	}
	var peers []string
	for i, id := range clusterNodes {
		peers = append(peers, id+"=http://"+addrs[i])
	}
	for i, id := range clusterNodes {
		cfg := daemonConfig{Addr: addrs[i], ServerConfig: placemon.ServerConfig{
			NodeID:       id,
			Peers:        strings.Join(peers, ","),
			ClusterProxy: i == 0,
			WALDir:       walDir(id),
			TraceBuffer:  traceBuf,
		}}
		if cfg.WALDir != "" {
			cfg.WALSync = walSync
		}
		c.configs = append(c.configs, cfg)
	}
	var wg sync.WaitGroup
	errs := make([]error, len(clusterNodes))
	for i := range clusterNodes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			d, err := startDaemon(bin, c.configs[i])
			if err == nil {
				c.nodes[i] = d
				err = d.waitHealthy(30 * time.Second)
			}
			errs[i] = err
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		c.kill()
		return nil, err
	}
	return c, nil
}

func (c *cluster) kill() {
	for _, d := range c.nodes {
		if d != nil {
			d.kill()
		}
	}
}

// ownerOf asks a redirecting (non-entry) node who owns a scenario ID: a
// 307 names the owner, a 404 means the asked node owns it.
func (c *cluster) ownerOf(id string) (string, error) {
	asked := clusterNodes[1]
	hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error { return http.ErrUseLastResponse }}
	resp, err := hc.Get(c.nodes[1].url + "/v1/scenarios/" + id)
	if err != nil {
		return "", err
	}
	resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusTemporaryRedirect:
		return resp.Header.Get("Placemond-Owner"), nil
	case http.StatusNotFound:
		return asked, nil
	}
	return "", fmt.Errorf("owner probe for %s answered %d", id, resp.StatusCode)
}

// hotScenarioID picks the first ID the ring assigns to a node other than
// the entry node. The ring hashes member IDs, not addresses, so the
// answer is the same on every run; a throwaway in-memory cluster answers
// it before set-up is timed.
func hotScenarioID(bin string) (id, owner string, err error) {
	c, err := startCluster(bin, func(string) string { return "" }, 0)
	if err != nil {
		return "", "", err
	}
	defer stopAll(c.nodes)
	for k := range 64 {
		id := fmt.Sprintf("hot-%d", k)
		owner, err := c.ownerOf(id)
		if err != nil {
			return "", "", err
		}
		if owner != clusterNodes[0] {
			return id, owner, nil
		}
	}
	return "", "", fmt.Errorf("no scenario ID owned off the entry node")
}

func runDurable(e *env) (*pass, error) {
	id, ownerID, err := hotScenarioID(e.daemonBin)
	if err != nil {
		return nil, err
	}
	hot, err := newTenant(id, observeShape, topologySeed("hot"))
	if err != nil {
		return nil, err
	}
	offsets := schedule(durableRate, float64(loadWindows(e.seconds, loadFactor)), subSeed(e.seed, "schedule"))
	batches := hot.batches(len(offsets), subSeed(e.seed, "batches"))
	ops := make([]*op, len(offsets))
	for i, off := range offsets {
		ops[i] = &op{due: off, kind: opIngest, batch: i}
	}

	p := &pass{traced: e.traced, ops: ops, wholeLoadCPU: true, walSync: walSync, operations: map[string]float64{}, layers: map[string]float64{}}
	var c *cluster
	err = p.timeSetups(func(rep int) (func() error, error) {
		var err error
		c, err = startCluster(e.daemonBin, func(n string) string { return filepath.Join(e.scratch, fmt.Sprintf("rep%d-%s", rep, n)) },
			traceBuffer(e.traced, len(ops)))
		if err != nil {
			return nil, err
		}
		admin, err := adminClient(c.nodes[0].url)
		if err == nil {
			err = createTenants(admin, []*tenant{hot})
		}
		if err != nil {
			c.kill()
			return nil, err
		}
		nodes := c.nodes
		return func() error { return stopAll(nodes) }, nil
	})
	if err != nil {
		return nil, err
	}
	defer func() { c.kill() }()
	owner := c.node(ownerID)
	ownerWAL := c.configs[owner].WALDir

	senders := make([]*sender, 2)
	for i := range senders {
		if senders[i], err = newSender(c.nodes[0].url, e.traced); err != nil {
			return nil, err
		}
	}
	if err := prime(senders, []*tenant{hot}); err != nil {
		return nil, err
	}
	before, err := scrapeAll(c.nodes)
	if err != nil {
		return nil, err
	}
	snaps := watchSnapshots(ownerWAL)
	err = p.measureLoad(c.nodes, e.seconds, loadFactor, func(start time.Time) {
		runOpen(start, senders, ops, callOp([]*tenant{hot}, [][]batch{batches}))
	})
	compactions, snapMB := snaps.stop()
	if err != nil {
		return nil, err
	}
	after, err := scrapeAll(c.nodes)
	if err != nil {
		return nil, err
	}

	// Per-op checks: the two senders interleave in the one scenario, so
	// the replies are checked for shape here and the event stream as a
	// whole against the audit ledger below.
	acked, events := 0, 0
	for _, o := range p.ops {
		var err error
		if o.err == nil {
			err = wellFormed(o.ingest)
			acked++
			events += len(o.ingest.Events)
		}
		finishOp(o, err)
	}
	fsyncs := promDelta(before, after, "placemond_wal_fsync_duration_seconds_count")
	fsyncSum := promDelta(before, after, "placemond_wal_fsync_duration_seconds_sum")
	if acked > 0 {
		p.layers["wal.fsyncs_per_batch"] = fsyncs / float64(acked)
	}
	if fsyncs > 0 {
		p.layers["wal.fsync_us"] = us(fsyncSum / fsyncs)
	}
	p.layers["wal.compactions"] = float64(compactions)
	p.layers["wal.snapshot_mb"] = snapMB

	if e.traced {
		if p.entry, err = fetchTraces(c.nodes[0].url); err != nil {
			return nil, err
		}
		for i := 1; i < len(c.nodes); i++ {
			recs, err := fetchTraces(c.nodes[i].url)
			if err != nil {
				return nil, err
			}
			p.others = append(p.others, recs...)
		}
	}

	if err := p.restartChecks(c, owner, hot.id, events); err != nil {
		return nil, err
	}
	if err := stopAll(c.nodes); err != nil {
		return nil, err
	}
	for i, cfg := range c.configs {
		out, err := exec.Command(e.placemonBin, "fsck", cfg.WALDir).CombinedOutput()
		if err != nil {
			err = fmt.Errorf("%v: %s", err, strings.TrimSpace(string(out)))
		}
		p.addCheck("fsck node "+clusterNodes[i], err)
	}
	return p, nil
}

// wellFormed checks an ingest reply's shape: known event kinds, a
// diagnosis on every diagnosis-changed event, and on every outage-started
// event unless an inconsistency follows it.
func wellFormed(res *placemonclient.IngestResult) error {
	for i, ev := range res.Events {
		switch ev.Kind {
		case "outage-started":
			inconsistent := i+1 < len(res.Events) && res.Events[i+1].Kind == "inconsistent"
			if ev.Diagnosis == nil && !inconsistent {
				return fmt.Errorf("event %d: outage-started without a diagnosis or an inconsistency", i)
			}
		case "diagnosis-changed":
			if ev.Diagnosis == nil || len(ev.Diagnosis.Candidates) == 0 {
				return fmt.Errorf("event %d: diagnosis-changed without candidates", i)
			}
		case "outage-cleared", "inconsistent":
		default:
			return fmt.Errorf("event %d: unknown kind %q", i, ev.Kind)
		}
	}
	return nil
}

// restartChecks SIGKILLs and restarts the owner durableRestarts times.
// Each time it times recovery to the first 200 for the scenario and checks
// that the audit chain verifies, holds every acknowledged event, and that
// the diagnosis equals the one before the kill.
func (p *pass) restartChecks(c *cluster, owner int, id string, ackedEvents int) error {
	admin, err := adminClient(c.nodes[0].url)
	if err != nil {
		return err
	}
	var recovery, walRecovery, replayed []float64
	for r := range durableRestarts {
		name := fmt.Sprintf("restart %d", r+1)
		want, err := getDiagnosis(admin, id)
		if err != nil {
			p.addCheck(name+" diagnosis before kill", err)
			continue
		}
		c.nodes[owner].kill()
		t0 := time.Now()
		d, err := startDaemon(c.nodes[owner].cmd.Path, c.configs[owner])
		if err != nil {
			return err
		}
		c.nodes[owner] = d
		if err := waitScenario(d.url, id, 30*time.Second); err != nil {
			p.addCheck(name+" recovery", err)
			continue
		}
		recovery = append(recovery, since(t0))
		if m, err := fetchMetrics(d.url); err == nil {
			v, _ := promSum(m, "placemond_wal_recovery_duration_seconds")
			walRecovery = append(walRecovery, v*1e3)
			v, _ = promSum(m, "placemond_wal_records_replayed_total")
			replayed = append(replayed, v)
		}
		got, err := getDiagnosis(admin, id)
		if err == nil && !reflect.DeepEqual(got, want) {
			err = fmt.Errorf("diagnosis after restart differs from before the kill")
		}
		p.addCheck(name+" diagnosis", err)
		p.addCheck(name+" audit", checkAudit(admin, id, ackedEvents))
	}
	p.operations["recovery_s"] = median(recovery)
	p.layers["wal.recovery_ms"] = median(walRecovery)
	p.layers["wal.records_replayed"] = median(replayed)
	return nil
}

func getDiagnosis(c *placemonclient.Client, id string) (*placemonclient.DiagnosisResponse, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return c.Scenario(id).Diagnosis(ctx)
}

// checkAudit verifies the scenario's hash chain and that it holds exactly
// the events the load phase acknowledged.
func checkAudit(c *placemonclient.Client, id string, ackedEvents int) error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rep, err := c.Scenario(id).Audit(ctx, 1)
	if err != nil {
		return err
	}
	if !rep.Chain.Verified {
		return fmt.Errorf("audit chain does not verify: %s", rep.Chain.Error)
	}
	if rep.TotalEvents != ackedEvents {
		return fmt.Errorf("audit holds %d events, the load phase acknowledged %d", rep.TotalEvents, ackedEvents)
	}
	return nil
}

// waitScenario polls a node until it answers 200 for the scenario's
// diagnosis.
func waitScenario(url, id string, timeout time.Duration) error {
	hc := &http.Client{Timeout: timeout}
	deadline := time.Now().Add(timeout)
	for {
		resp, err := hc.Get(url + "/v1/scenarios/" + id + "/diagnosis")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s not serving %s after %s", url, id, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func scrapeAll(nodes []*daemon) ([][]byte, error) {
	out := make([][]byte, len(nodes))
	for i, d := range nodes {
		m, err := fetchMetrics(d.url)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// promDelta sums a metric's change over every node.
func promDelta(before, after [][]byte, name string) float64 {
	var d float64
	for i := range before {
		b, _ := promSum(before[i], name)
		a, _ := promSum(after[i], name)
		d += a - b
	}
	return d
}

// snapshotWatch notes the WAL snapshots written while it runs. Compaction
// deletes the previous snapshot, so the directory is listed every 20 ms
// rather than once at the end.
type snapshotWatch struct {
	done  chan struct{}
	wg    sync.WaitGroup
	seen  map[string]int64
	start map[string]bool
}

func watchSnapshots(dir string) *snapshotWatch {
	w := &snapshotWatch{done: make(chan struct{}), seen: map[string]int64{}, start: map[string]bool{}}
	for name := range listSnapshots(dir) {
		w.start[name] = true
	}
	w.wg.Add(1)
	go func() {
		defer w.wg.Done()
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			for name, size := range listSnapshots(dir) {
				if !w.start[name] {
					w.seen[name] = size
				}
			}
			select {
			case <-w.done:
				return
			case <-tick.C:
			}
		}
	}()
	return w
}

// stop ends the watch and returns the snapshots written and their mean
// size in MiB.
func (w *snapshotWatch) stop() (int, float64) {
	close(w.done)
	w.wg.Wait()
	var total int64
	for _, size := range w.seen {
		total += size
	}
	if len(w.seen) == 0 {
		return 0, 0
	}
	return len(w.seen), float64(total) / float64(len(w.seen)) / (1 << 20)
}

func listSnapshots(dir string) map[string]int64 {
	out := map[string]int64{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return out
	}
	for _, ent := range entries {
		if filepath.Ext(ent.Name()) != ".snap" || strings.HasPrefix(ent.Name(), ".") {
			continue
		}
		if info, err := ent.Info(); err == nil {
			out[ent.Name()] = info.Size()
		}
	}
	return out
}
