package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strconv"
	"strings"
)

// This file is the declarative face of the evaluation: a GridSpec
// (usually parsed from a repo-root experiments.json) names every
// placement run to execute — topology × objective kind × failure budget
// × repeats — plus the loadgen profiles to drive against a daemon
// afterwards, and ValidateCSV checks the regenerated CSVs against the
// golden figures archived in results/. `make paper-runs` executes one
// spec end to end into a timestamped paper_runs/<ts>/ tree.

// GridDefaults are spec-wide knobs a run inherits unless it overrides
// them.
type GridDefaults struct {
	// Seed drives every randomized series (RD placements, failure traces).
	Seed int64 `json:"seed"`
	// RDSeeds is the number of random placements averaged per α.
	RDSeeds int `json:"rdseeds"`
}

// PlacementRun is one cell of the placement grid. Kind selects the
// objective pipeline (and thereby the failure budget k):
//
//	fig4    candidate-set size distribution vs α       (k: n/a)
//	curves  coverage/S1/D1 vs α, Figs. 5-7 pipeline    (k = 1)
//	k2      D2/S2/identifiable-sets sweep              (k = 2)
//	fig8    localization-degree distribution at one α  (k = 1)
//	oploop  operational loop: detection/pinpoint/delay (k = 1)
type PlacementRun struct {
	// Name labels the run; its CSV lands in csv/<name>.csv.
	Name string `json:"name"`
	// Kind is one of fig4, curves, k2, fig8, oploop.
	Kind string `json:"kind"`
	// Topology is a built-in topology name (Abovenet, Tiscali, AT&T).
	Topology string `json:"topology"`
	// Alphas overrides the α grid (fig4, curves, k2).
	Alphas []float64 `json:"alphas,omitempty"`
	// Alpha is the single α of fig8/oploop runs.
	Alpha float64 `json:"alpha,omitempty"`
	// BruteForce adds the BF reference series (curves only; expensive,
	// Abovenet-sized topologies only in practice).
	BruteForce bool `json:"brute_force,omitempty"`
	// Repeats re-executes the run this many times (default 1) and fails
	// unless every repeat reproduces the first byte for byte.
	Repeats int `json:"repeats,omitempty"`
	// Seed/RDSeeds override the spec defaults when non-zero.
	Seed    int64 `json:"seed,omitempty"`
	RDSeeds int   `json:"rdseeds,omitempty"`
	// ProbePeriods/Horizon/MTBF/MTTR tune oploop runs (zero = paper
	// defaults: 2/5/20 probe periods, 5000 horizon, 500 MTBF, 90 MTTR).
	ProbePeriods []float64 `json:"probe_periods,omitempty"`
	Horizon      float64   `json:"horizon,omitempty"`
	MTBF         float64   `json:"mtbf,omitempty"`
	MTTR         float64   `json:"mttr,omitempty"`
	// Golden names a file under the goldens directory (results/) to
	// validate the produced CSV against; empty skips validation.
	Golden string `json:"golden,omitempty"`
}

// LoadgenProfile declares one loadgen run of the grid. The experiments
// package only carries the data; cmd/experiments translates it into an
// internal/loadgen configuration and executes it against an in-process
// daemon.
type LoadgenProfile struct {
	Name      string  `json:"name"`
	RPS       float64 `json:"rps"`
	Duration  string  `json:"duration"`
	Scenarios int     `json:"scenarios,omitempty"`
	Clients   int     `json:"clients,omitempty"`
	Seed      int64   `json:"seed,omitempty"`
	Topology  string  `json:"topology,omitempty"`
	Services  int     `json:"services,omitempty"`
	Alpha     float64 `json:"alpha,omitempty"`
	K         int     `json:"k,omitempty"`
	// SLO is an inline slo.json document (max_p99_seconds, ...); empty
	// grades against the built-in default SLO.
	SLO json.RawMessage `json:"slo,omitempty"`
}

// GridSpec is the parsed experiments.json.
type GridSpec struct {
	Defaults   GridDefaults     `json:"defaults"`
	Placements []PlacementRun   `json:"placements"`
	Loadgen    []LoadgenProfile `json:"loadgen,omitempty"`
}

var gridKinds = map[string]bool{
	"fig4": true, "curves": true, "k2": true, "fig8": true, "oploop": true,
}

// LoadGridSpec reads and validates an experiments.json file.
func LoadGridSpec(path string) (GridSpec, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return GridSpec{}, err
	}
	spec, err := ParseGridSpec(raw)
	if err != nil {
		return GridSpec{}, fmt.Errorf("%s: %w", path, err)
	}
	return spec, nil
}

// ParseGridSpec decodes a grid spec strictly (unknown keys are errors —
// a typoed knob must not silently fall back to a default) and validates
// it.
func ParseGridSpec(raw []byte) (GridSpec, error) {
	var spec GridSpec
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		return GridSpec{}, fmt.Errorf("experiments: parse grid spec: %w", err)
	}
	if err := spec.Validate(); err != nil {
		return GridSpec{}, err
	}
	return spec, nil
}

// Validate checks the spec for contradictions before any work starts.
func (g GridSpec) Validate() error {
	if len(g.Placements) == 0 && len(g.Loadgen) == 0 {
		return fmt.Errorf("experiments: grid spec declares no placements and no loadgen profiles")
	}
	seen := map[string]bool{}
	for i, run := range g.Placements {
		if run.Name == "" {
			return fmt.Errorf("experiments: placements[%d]: missing name", i)
		}
		if seen[run.Name] {
			return fmt.Errorf("experiments: duplicate placement run name %q", run.Name)
		}
		seen[run.Name] = true
		if !gridKinds[run.Kind] {
			return fmt.Errorf("experiments: run %q: unknown kind %q (want fig4, curves, k2, fig8, or oploop)", run.Name, run.Kind)
		}
		if _, err := WorkloadByName(run.Topology); err != nil {
			return fmt.Errorf("experiments: run %q: %w", run.Name, err)
		}
		if run.Repeats < 0 {
			return fmt.Errorf("experiments: run %q: negative repeats %d", run.Name, run.Repeats)
		}
		if strings.ContainsAny(run.Name, "/\\") {
			return fmt.Errorf("experiments: run %q: name must be a plain file stem", run.Name)
		}
	}
	seen = map[string]bool{}
	for i, lp := range g.Loadgen {
		if lp.Name == "" {
			return fmt.Errorf("experiments: loadgen[%d]: missing name", i)
		}
		if seen[lp.Name] {
			return fmt.Errorf("experiments: duplicate loadgen profile name %q", lp.Name)
		}
		seen[lp.Name] = true
		if lp.RPS <= 0 {
			return fmt.Errorf("experiments: loadgen %q: rps must be positive", lp.Name)
		}
		if lp.Duration == "" {
			return fmt.Errorf("experiments: loadgen %q: missing duration", lp.Name)
		}
	}
	return nil
}

// seedOf resolves a run's effective seed / RD-seed count.
func (g GridSpec) seedOf(run PlacementRun) (int64, int) {
	seed, rd := g.Defaults.Seed, g.Defaults.RDSeeds
	if run.Seed != 0 {
		seed = run.Seed
	}
	if run.RDSeeds != 0 {
		rd = run.RDSeeds
	}
	if rd < 1 {
		rd = 5
	}
	return seed, rd
}

// ExecutePlacement runs one grid cell and returns its CSV bytes plus the
// rendered text tables (for the per-run log). With Repeats > 1 the run
// re-executes from a fresh Prepared each time and errors unless every
// repeat reproduces the first CSV byte for byte — the reproducibility
// guarantee the golden validation rests on.
func (g GridSpec) ExecutePlacement(run PlacementRun) (csv []byte, text string, err error) {
	repeats := run.Repeats
	if repeats < 1 {
		repeats = 1
	}
	for i := 0; i < repeats; i++ {
		c, tx, err := g.executeOnce(run)
		if err != nil {
			return nil, "", fmt.Errorf("run %s (repeat %d/%d): %w", run.Name, i+1, repeats, err)
		}
		if i == 0 {
			csv, text = c, tx
			continue
		}
		if !bytes.Equal(csv, c) {
			return nil, "", fmt.Errorf("run %s: repeat %d/%d diverged from the first execution", run.Name, i+1, repeats)
		}
	}
	return csv, text, nil
}

func (g GridSpec) executeOnce(run PlacementRun) ([]byte, string, error) {
	w, err := WorkloadByName(run.Topology)
	if err != nil {
		return nil, "", err
	}
	p, err := Prepare(w)
	if err != nil {
		return nil, "", err
	}
	seed, rdSeeds := g.seedOf(run)
	var buf bytes.Buffer
	var text strings.Builder

	switch run.Kind {
	case "fig4":
		alphas := run.Alphas
		if len(alphas) == 0 {
			alphas = DefaultAlphas()
		}
		rows, err := Fig4(p, alphas)
		if err != nil {
			return nil, "", err
		}
		text.WriteString(RenderFig4(run.Topology, rows))
		err = WriteFig4CSV(&buf, run.Topology, rows)
		return buf.Bytes(), text.String(), err

	case "curves":
		curves, err := MonitoringCurves(p, CurvesConfig{
			Alphas:    run.Alphas,
			IncludeBF: run.BruteForce,
			RDSeeds:   rdSeeds,
			Seed:      seed,
		})
		if err != nil {
			return nil, "", err
		}
		for _, m := range Measures() {
			text.WriteString(RenderCurves(run.Name, run.Topology, curves, m))
			text.WriteByte('\n')
		}
		err = WriteCurvesCSV(&buf, run.Topology, curves)
		return buf.Bytes(), text.String(), err

	case "k2":
		alphas := run.Alphas
		if len(alphas) == 0 {
			alphas = []float64{0, 0.25, 0.5, 0.75, 1}
		}
		curves, err := K2Sweep(p, K2Config{Alphas: alphas, RDSeeds: rdSeeds, Seed: seed})
		if err != nil {
			return nil, "", err
		}
		text.WriteString(RenderK2(run.Topology, curves))
		err = WriteK2CSV(&buf, run.Topology, curves)
		return buf.Bytes(), text.String(), err

	case "fig8":
		dists, err := Fig8(p, Fig8Config{Alpha: run.Alpha, Seed: seed})
		if err != nil {
			return nil, "", err
		}
		text.WriteString(RenderFig8(run.Topology, run.Alpha, dists))
		err = WriteFig8CSV(&buf, run.Topology, dists)
		return buf.Bytes(), text.String(), err

	case "oploop":
		probes := run.ProbePeriods
		if len(probes) == 0 {
			probes = []float64{2, 5, 20}
		}
		horizon := run.Horizon
		if horizon == 0 {
			horizon = 5000
		}
		mtbf, mttr := run.MTBF, run.MTTR
		if mtbf == 0 {
			mtbf = 500
		}
		if mttr == 0 {
			mttr = 90
		}
		rows, err := OpLoopSweep(p, OpLoopConfig{
			Alpha:        run.Alpha,
			ProbePeriods: probes,
			Horizon:      horizon,
			MTBF:         mtbf,
			MTTR:         mttr,
			Seed:         seed,
		})
		if err != nil {
			return nil, "", err
		}
		text.WriteString(RenderOpLoop(run.Topology, run.Alpha, rows))
		err = WriteOpLoopCSV(&buf, run.Topology, rows)
		return buf.Bytes(), text.String(), err
	}
	return nil, "", fmt.Errorf("unknown kind %q", run.Kind)
}

// ValidateCSV compares a regenerated CSV against a golden file cell by
// cell. Headers must match exactly; numeric cells are compared with a
// small relative tolerance (float formatting, not physics, is the only
// legitimate source of drift); everything else must be string-equal. The
// error lists the first mismatches, not just the first, so a systematic
// drift reads as such.
func ValidateCSV(got, golden []byte) error {
	gotLines := splitCSVLines(got)
	goldLines := splitCSVLines(golden)
	var diffs []string
	if len(gotLines) != len(goldLines) {
		diffs = append(diffs, fmt.Sprintf("line count %d, golden has %d", len(gotLines), len(goldLines)))
	}
	n := len(gotLines)
	if len(goldLines) < n {
		n = len(goldLines)
	}
	for i := 0; i < n && len(diffs) < 6; i++ {
		if gotLines[i] == goldLines[i] {
			continue
		}
		if i == 0 {
			diffs = append(diffs, fmt.Sprintf("header %q, golden %q", gotLines[i], goldLines[i]))
			continue
		}
		gotCells := strings.Split(gotLines[i], ",")
		goldCells := strings.Split(goldLines[i], ",")
		if len(gotCells) != len(goldCells) {
			diffs = append(diffs, fmt.Sprintf("line %d: %d cells, golden has %d", i+1, len(gotCells), len(goldCells)))
			continue
		}
		for j := range gotCells {
			if cellsEqual(gotCells[j], goldCells[j]) {
				continue
			}
			diffs = append(diffs, fmt.Sprintf("line %d col %d: %q, golden %q", i+1, j+1, gotCells[j], goldCells[j]))
			break
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("csv drifted from golden: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// splitCSVLines splits on newlines dropping a single trailing empty line.
func splitCSVLines(b []byte) []string {
	s := strings.ReplaceAll(string(b), "\r\n", "\n")
	s = strings.TrimSuffix(s, "\n")
	if s == "" {
		return nil
	}
	return strings.Split(s, "\n")
}

// cellsEqual compares two CSV cells: numerically when both parse as
// floats (relative tolerance 1e-9), string-equal otherwise.
func cellsEqual(a, b string) bool {
	if a == b {
		return true
	}
	fa, errA := strconv.ParseFloat(strings.TrimSpace(a), 64)
	fb, errB := strconv.ParseFloat(strings.TrimSpace(b), 64)
	if errA != nil || errB != nil {
		return false
	}
	diff := math.Abs(fa - fb)
	scale := math.Max(math.Abs(fa), math.Abs(fb))
	return diff <= 1e-9+1e-9*scale
}

// RunOutcome is one placement run's row in the summary.md table.
type RunOutcome struct {
	Name     string
	Kind     string
	Topology string
	Repeats  int
	Golden   string
	// Status is "ok", "FAIL: ...", or "unvalidated".
	Status string
}

// LoadgenOutcome summarizes one executed loadgen profile.
type LoadgenOutcome struct {
	Name      string
	RPS       float64
	Duration  string
	Arrivals  int
	P50, P99  float64
	ErrorRate float64
	Status    string // "pass" or "FAIL: ..."
}

// WriteSummary writes the human entry point of a paper_runs tree.
func WriteSummary(w io.Writer, ts string, def GridDefaults, runs []RunOutcome, loads []LoadgenOutcome) error {
	fmt.Fprintf(w, "# Paper runs %s\n\n", ts)
	fmt.Fprintf(w, "Defaults: seed=%d rdseeds=%d\n\n", def.Seed, def.RDSeeds)
	if len(runs) > 0 {
		fmt.Fprintln(w, "## Placement grid")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| run | kind | topology | repeats | golden | validation |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|")
		for _, r := range runs {
			golden := r.Golden
			if golden == "" {
				golden = "—"
			}
			fmt.Fprintf(w, "| %s | %s | %s | %d | %s | %s |\n",
				r.Name, r.Kind, r.Topology, r.Repeats, golden, r.Status)
		}
		fmt.Fprintln(w)
	}
	if len(loads) > 0 {
		fmt.Fprintln(w, "## Load profiles")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "| profile | rps | duration | arrivals | p50 | p99 | error rate | SLO |")
		fmt.Fprintln(w, "|---|---|---|---|---|---|---|---|")
		for _, l := range loads {
			fmt.Fprintf(w, "| %s | %g | %s | %d | %.1fms | %.1fms | %.2f%% | %s |\n",
				l.Name, l.RPS, l.Duration, l.Arrivals, l.P50*1e3, l.P99*1e3, l.ErrorRate*100, l.Status)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w, "Artifacts: csv/ (regenerated figures), logs/ (per-run text tables and loadgen reports), analysis/ (validation.csv, loadgen_*.json).")
	return nil
}
