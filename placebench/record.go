package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"
)

// runRecord is the full account of one benchmark invocation: everything
// the result line leaves out, including the figures that vary with the
// host (latency tails, generator lateness, CPU steal) and so are recorded
// but not gated.
type runRecord struct {
	Workload string   `json:"workload"`
	Seed     int64    `json:"seed"`
	Seconds  float64  `json:"seconds"`
	Host     hostInfo `json:"host"`
	// WALDir is the last pass's scratch directory, which held any WALs
	// (removed after the pass).
	WALDir string       `json:"wal_dir"`
	Passes []passRecord `json:"passes"`
}

type passRecord struct {
	Traced     bool               `json:"traced"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	Setups     []setupRun         `json:"setups"`
	Operations map[string]float64 `json:"operations"`
	Ingest     tail               `json:"ingest"`
	Diagnosis  tail               `json:"diagnosis"`
	Place      tail               `json:"place"`
	Replace    tail               `json:"replace"`
	// Lateness is how late the pacer released each open-loop op.
	Lateness tail `json:"generator_lateness"`
	// StealFrac is the host's CPU steal share over the whole load phase
	// and SelectedStealFrac over the selected windows, SelectedContention
	// the selected windows' mean contention; Windows has every one-second
	// window.
	StealFrac          float64  `json:"steal_frac"`
	SelectedStealFrac  float64  `json:"selected_steal_frac"`
	SelectedContention float64  `json:"selected_contention"`
	Windows            []window `json:"windows"`
	LoadWall           float64  `json:"load_wall_s"`
	// WholeLoadCPU says cpu_us_per_op was taken over every window.
	WholeLoadCPU bool `json:"whole_load_cpu,omitempty"`
	// HeapOneGCMB is the daemons' heap after a single forced GC, beside
	// heap_mb, the live heap after a second.
	HeapOneGCMB float64 `json:"heap_one_gc_mb"`
	// GeneratorCPUUsPerOp is this process's CPU per op over the selected
	// windows, beside the daemons' cpu_us_per_op, which excludes it.
	GeneratorCPUUsPerOp float64             `json:"generator_cpu_us_per_op"`
	WALSync             string              `json:"wal_sync,omitempty"`
	Attempted           int                 `json:"attempted"`
	Failed              int                 `json:"failed"`
	Failures            []string            `json:"failures,omitempty"`
	Checks              []check             `json:"checks"`
	Layers              map[string]float64  `json:"layers,omitempty"`
	Stages              map[string]stageRow `json:"stages,omitempty"`
}

func newRunRecord(workload string, e *env, base, traced *pass) *runRecord {
	r := &runRecord{Workload: workload, Seed: e.seed, Seconds: e.seconds, Host: currentHost(), WALDir: e.scratch}
	r.Passes = append(r.Passes, base.record(nil))
	if traced != nil {
		r.Passes = append(r.Passes, traced.record(base))
	}
	return r
}

func (p *pass) record(base *pass) passRecord {
	_, attempted, failed := p.verdict()
	pr := passRecord{
		Traced:             p.traced,
		EndToEnd:           p.endToEnd(),
		Setups:             p.setups,
		Operations:         p.operations,
		Ingest:             summarize(p.latencies(opIngest, false)),
		Diagnosis:          summarize(p.latencies(opDiagnosis, false)),
		Place:              summarize(p.latencies(opPlace, false)),
		Replace:            summarize(p.latencies(opReplace, false)),
		SelectedStealFrac:  p.steal,
		SelectedContention: p.contention,
		Windows:            p.windows,
		LoadWall:           p.loadWall,
		WholeLoadCPU:       p.wholeLoadCPU,
		HeapOneGCMB:        float64(p.heapOneGC) / (1 << 20),
		WALSync:            p.walSync,
		Attempted:          attempted,
		Failed:             failed,
		Checks:             p.checks,
	}
	var late []float64
	for _, o := range p.ops {
		late = append(late, ms(o.late))
		if !o.ok && len(pr.Failures) < 10 {
			pr.Failures = append(pr.Failures, fmt.Sprint(o.checkErr))
		}
	}
	pr.Lateness = summarize(late)
	for _, w := range p.windows {
		pr.StealFrac += w.Steal / float64(len(p.windows))
	}
	if p.completed > 0 {
		pr.GeneratorCPUUsPerOp = float64(p.genCPU) / float64(time.Microsecond) / float64(p.completed)
	}
	if base != nil {
		pr.Layers = p.layerMetrics(base)
		pr.Stages = p.joinLayers().stageTable()
	}
	return pr
}

// write prints the record to w and, when dir is set, files it there.
func (r *runRecord) write(w io.Writer, dir string) error {
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(raw))
	if dir == "" {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-%s.json", r.Workload, r.Seed, time.Now().UTC().Format("20060102T150405"))
	return os.WriteFile(filepath.Join(dir, name), raw, 0o644)
}
