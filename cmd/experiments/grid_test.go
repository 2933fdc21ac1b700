package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeGridSpec drops a spec file into a temp dir and returns its path.
func writeGridSpec(t *testing.T, spec string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "experiments.json")
	if err := os.WriteFile(path, []byte(spec), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunGridEndToEnd executes a one-run grid with golden validation
// against the repo's archived figures plus a short loadgen profile, and
// checks the produced tree.
func TestRunGridEndToEnd(t *testing.T) {
	silence(t)
	spec := writeGridSpec(t, `{
		"defaults": {"seed": 1, "rdseeds": 5},
		"placements": [
			{"name": "fig4_abovenet", "kind": "fig4", "topology": "Abovenet", "repeats": 2, "golden": "fig4_abovenet.csv"}
		],
		"loadgen": [
			{"name": "micro", "rps": 50, "duration": "1s", "scenarios": 2, "services": 2, "topology": "Abovenet"}
		]
	}`)
	runs := t.TempDir()
	if err := run([]string{"-grid", spec, "-runs-dir", runs, "-goldens", "../../results", "-ts", "testrun"}); err != nil {
		t.Fatal(err)
	}
	root := filepath.Join(runs, "testrun")
	for _, rel := range []string{
		"csv/fig4_abovenet.csv",
		"logs/fig4_abovenet.log",
		"logs/loadgen_micro.log",
		"analysis/validation.csv",
		"analysis/loadgen_micro.json",
		"summary.md",
	} {
		if _, err := os.Stat(filepath.Join(root, rel)); err != nil {
			t.Errorf("missing artifact %s: %v", rel, err)
		}
	}
	sum, err := os.ReadFile(filepath.Join(root, "summary.md"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"| fig4_abovenet | fig4 | Abovenet | 2 | fig4_abovenet.csv | ok |", "| micro | 50 | 1s |", "pass |"} {
		if !strings.Contains(string(sum), want) {
			t.Errorf("summary.md missing %q:\n%s", want, sum)
		}
	}
	val, err := os.ReadFile(filepath.Join(root, "analysis", "validation.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(val), `fig4_abovenet,fig4,Abovenet,2,fig4_abovenet.csv,"ok"`) {
		t.Errorf("validation.csv wrong:\n%s", val)
	}
}

// TestRunGridFailsOnDriftedGolden: validation against a deliberately
// wrong golden makes the whole invocation exit non-zero, but the tree is
// still written for inspection.
func TestRunGridFailsOnDriftedGolden(t *testing.T) {
	silence(t)
	goldens := t.TempDir()
	if err := os.WriteFile(filepath.Join(goldens, "bad.csv"), []byte("topology,alpha,min,q1,median,q3,max\nAbovenet,0,999,999,999,999,999\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	spec := writeGridSpec(t, `{
		"placements": [
			{"name": "fig4_abovenet", "kind": "fig4", "topology": "Abovenet", "golden": "bad.csv"}
		]
	}`)
	runs := t.TempDir()
	err := run([]string{"-grid", spec, "-runs-dir", runs, "-goldens", goldens, "-ts", "drift"})
	if err == nil {
		t.Fatal("drifted golden did not fail the grid")
	}
	if !strings.Contains(err.Error(), "failed validation") {
		t.Fatalf("unexpected error: %v", err)
	}
	if _, serr := os.Stat(filepath.Join(runs, "drift", "summary.md")); serr != nil {
		t.Errorf("summary.md not written on failure: %v", serr)
	}
	val, verr := os.ReadFile(filepath.Join(runs, "drift", "analysis", "validation.csv"))
	if verr != nil {
		t.Fatal(verr)
	}
	if !strings.Contains(string(val), "FAIL") {
		t.Errorf("validation.csv does not record the failure:\n%s", val)
	}
}

// TestRunGridBadSpec: a malformed spec fails before any tree is created.
func TestRunGridBadSpec(t *testing.T) {
	silence(t)
	spec := writeGridSpec(t, `{"placements": [{"name": "x", "kind": "nosuch", "topology": "Abovenet"}]}`)
	runs := t.TempDir()
	if err := run([]string{"-grid", spec, "-runs-dir", runs}); err == nil {
		t.Fatal("bad spec accepted")
	}
	entries, err := os.ReadDir(runs)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("tree created despite bad spec: %v", entries)
	}
}
