// Command experiments regenerates every table and figure of the paper's
// evaluation (Table I, Figs. 4-8) from the library, printing aligned text
// tables to stdout and optionally writing CSV files:
//
//	experiments                 # everything, text to stdout
//	experiments -out results    # also write CSV per figure into results/
//	experiments -only Fig5      # a single artifact (TableI, Fig4..Fig8)
//
// With -grid it switches to declarative mode, executing an
// experiments.json grid (placement runs plus loadgen profiles) into a
// timestamped paper_runs/<ts>/{csv,logs,analysis,summary.md} tree and
// validating the regenerated CSVs against the golden figures:
//
//	experiments -grid experiments.json -runs-dir paper_runs -goldens results
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	out := fs.String("out", "", "directory for CSV output (created if needed; empty = stdout only)")
	only := fs.String("only", "", "run a single artifact: TableI, Fig4, Fig5, Fig6, Fig7, Fig8, K2, OpLoop")
	rdSeeds := fs.Int("rdseeds", 5, "random-placement seeds averaged per α")
	seed := fs.Int64("seed", 1, "base seed for randomized series")
	grid := fs.String("grid", "", "experiments.json grid spec: run declaratively into -runs-dir instead of the fixed artifact list")
	runsDir := fs.String("runs-dir", "paper_runs", "with -grid: parent directory for the timestamped run tree")
	goldens := fs.String("goldens", "results", "with -grid: directory holding the golden CSVs runs validate against")
	ts := fs.String("ts", "", "with -grid: override the run-tree timestamp (default: current UTC time)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *grid != "" {
		return runGrid(*grid, *runsDir, *goldens, *ts)
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}
	r := &runner{out: *out, rdSeeds: *rdSeeds, seed: *seed}

	artifacts := []struct {
		name string
		fn   func() error
	}{
		{"TableI", r.tableI},
		{"Fig4", r.fig4},
		{"Fig5", r.fig5},
		{"Fig6", r.fig6},
		{"Fig7", r.fig7},
		{"Fig8", r.fig8},
		{"K2", r.k2},
		{"OpLoop", r.opLoop},
	}
	want := strings.ToLower(*only)
	ran := false
	for _, a := range artifacts {
		if want != "" && strings.ToLower(a.name) != want {
			continue
		}
		if err := a.fn(); err != nil {
			return fmt.Errorf("%s: %w", a.name, err)
		}
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown artifact %q", *only)
	}
	return nil
}

type runner struct {
	out     string
	rdSeeds int
	seed    int64
}

func (r *runner) tableI() error {
	rows, err := experiments.TableI()
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderTableI(rows))
	return nil
}

func (r *runner) fig4() error {
	for _, w := range experiments.PaperWorkloads() {
		p, err := experiments.Prepare(w)
		if err != nil {
			return err
		}
		rows, err := experiments.Fig4(p, experiments.DefaultAlphas())
		if err != nil {
			return err
		}
		fmt.Println(experiments.RenderFig4(w.Topo.Name, rows))
		if r.out != "" {
			if err := r.writeCSV("fig4_"+slug(w.Topo.Name)+".csv", func(f *os.File) error {
				return experiments.WriteFig4CSV(f, w.Topo.Name, rows)
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

// slug lowercases a topology name for file naming.
func slug(name string) string {
	return strings.ToLower(strings.ReplaceAll(name, "&", ""))
}

// writeCSV creates a file in the output directory and hands it to fn.
func (r *runner) writeCSV(name string, fn func(*os.File) error) error {
	f, err := os.Create(filepath.Join(r.out, name))
	if err != nil {
		return err
	}
	if err := fn(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func (r *runner) fig5() error { return r.curves("Fig. 5", "Abovenet", true) }
func (r *runner) fig6() error { return r.curves("Fig. 6", "Tiscali", false) }
func (r *runner) fig7() error { return r.curves("Fig. 7", "AT&T", false) }

func (r *runner) curves(figure, topo string, includeBF bool) error {
	w, err := experiments.WorkloadByName(topo)
	if err != nil {
		return err
	}
	p, err := experiments.Prepare(w)
	if err != nil {
		return err
	}
	curves, err := experiments.MonitoringCurves(p, experiments.CurvesConfig{
		Alphas:    experiments.DefaultAlphas(),
		IncludeBF: includeBF,
		RDSeeds:   r.rdSeeds,
		Seed:      r.seed,
	})
	if err != nil {
		return err
	}
	for _, m := range experiments.Measures() {
		fmt.Println(experiments.RenderCurves(figure, topo, curves, m))
	}
	if r.out != "" {
		name := strings.ToLower(strings.ReplaceAll(figure, ". ", "")) + ".csv"
		f, err := os.Create(filepath.Join(r.out, name))
		if err != nil {
			return err
		}
		defer f.Close()
		if err := experiments.WriteCurvesCSV(f, topo, curves); err != nil {
			return err
		}
		return f.Close()
	}
	return nil
}

func (r *runner) k2() error {
	w, err := experiments.WorkloadByName("Abovenet")
	if err != nil {
		return err
	}
	p, err := experiments.Prepare(w)
	if err != nil {
		return err
	}
	curves, err := experiments.K2Sweep(p, experiments.K2Config{
		Alphas:  []float64{0, 0.25, 0.5, 0.75, 1},
		RDSeeds: r.rdSeeds,
		Seed:    r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderK2("Abovenet", curves))
	if r.out != "" {
		return r.writeCSV("k2_abovenet.csv", func(f *os.File) error {
			return experiments.WriteK2CSV(f, "Abovenet", curves)
		})
	}
	return nil
}

func (r *runner) opLoop() error {
	w, err := experiments.WorkloadByName("Tiscali")
	if err != nil {
		return err
	}
	p, err := experiments.Prepare(w)
	if err != nil {
		return err
	}
	rows, err := experiments.OpLoopSweep(p, experiments.OpLoopConfig{
		Alpha:        0.6,
		ProbePeriods: []float64{2, 5, 20},
		Horizon:      5000,
		MTBF:         500,
		MTTR:         90,
		Seed:         r.seed,
	})
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderOpLoop("Tiscali", 0.6, rows))
	if r.out != "" {
		return r.writeCSV("oploop_tiscali.csv", func(f *os.File) error {
			return experiments.WriteOpLoopCSV(f, "Tiscali", rows)
		})
	}
	return nil
}

func (r *runner) fig8() error {
	w, err := experiments.WorkloadByName("AT&T")
	if err != nil {
		return err
	}
	p, err := experiments.Prepare(w)
	if err != nil {
		return err
	}
	dists, err := experiments.Fig8(p, experiments.Fig8Config{Alpha: 0.6, Seed: r.seed})
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderFig8("AT&T", 0.6, dists))
	if r.out != "" {
		return r.writeCSV("fig8_att.csv", func(f *os.File) error {
			return experiments.WriteFig8CSV(f, "AT&T", dists)
		})
	}
	return nil
}
