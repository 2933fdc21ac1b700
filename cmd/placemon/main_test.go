package main

import (
	"os"
	"testing"
)

// silence routes stdout to /dev/null for the duration of a test so CLI
// runs don't clutter test output.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		devnull.Close()
	})
}

func TestRunNoArgs(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("missing subcommand should error")
	}
}

func TestRunUnknownSubcommand(t *testing.T) {
	if err := run([]string{"frobnicate"}); err == nil {
		t.Fatal("unknown subcommand should error")
	}
}

func TestRunHelp(t *testing.T) {
	if err := run([]string{"help"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdTopos(t *testing.T) {
	silence(t)
	if err := run([]string{"topos"}); err != nil {
		t.Fatal(err)
	}
}

func TestCmdCandidates(t *testing.T) {
	silence(t)
	if err := run([]string{"candidates", "-topology", "Abovenet", "-alpha", "0.5"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"candidates", "-clients", "0,1,2", "-alpha", "0.3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"candidates", "-topology", "nope"}); err == nil {
		t.Fatal("unknown topology should error")
	}
	if err := run([]string{"candidates", "-clients", "zero"}); err == nil {
		t.Fatal("bad client list should error")
	}
}

func TestCmdPlace(t *testing.T) {
	silence(t)
	for _, algo := range []string{"greedy", "lazy", "qos", "random"} {
		if err := run([]string{"place", "-topology", "Tiscali", "-services", "2",
			"-alpha", "0.5", "-algorithm", algo}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
	if err := run([]string{"place", "-clients", "3,6/7,9", "-alpha", "0.8"}); err != nil {
		t.Fatal(err)
	}
	for _, algo := range []string{"nope", "lazy-parallel"} {
		if err := run([]string{"place", "-algorithm", algo}); err == nil {
			t.Fatalf("algorithm %q should error", algo)
		}
	}
	if err := run([]string{"place", "-objective", "nope"}); err == nil {
		t.Fatal("bad objective should error")
	}
	if err := run([]string{"place", "-clients", "1,2/x"}); err == nil {
		t.Fatal("bad client spec should error")
	}
}

func TestCmdLocalize(t *testing.T) {
	silence(t)
	if err := run([]string{"localize", "-topology", "Abovenet", "-services", "2",
		"-alpha", "0.6", "-fail", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"localize"}); err == nil {
		t.Fatal("missing -fail should error")
	}
	if err := run([]string{"localize", "-fail", "bogus"}); err == nil {
		t.Fatal("bad -fail should error")
	}
	if err := run([]string{"localize", "-fail", "9999"}); err == nil {
		t.Fatal("out-of-range failure node should error")
	}
}

func TestCmdSimulate(t *testing.T) {
	silence(t)
	if err := run([]string{"simulate", "-topology", "Abovenet", "-horizon", "50",
		"-probe", "10", "-mtbf", "100", "-mttr", "10", "-seed", "2"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"simulate", "-topology", "nope"}); err == nil {
		t.Fatal("unknown topology should error")
	}
	if err := run([]string{"simulate", "-horizon", "-5"}); err == nil {
		t.Fatal("bad horizon should error")
	}
}

func TestParseInts(t *testing.T) {
	if _, err := parseInts(""); err == nil {
		t.Fatal("empty should error")
	}
	got, err := parseInts(" 1, 2 ,3 ")
	if err != nil || len(got) != 3 || got[1] != 2 {
		t.Fatalf("got %v, %v", got, err)
	}
}

func TestPlaceSaveAndLocalizeFromFile(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	file := dir + "/placement.json"
	if err := run([]string{"place", "-topology", "Abovenet", "-services", "2",
		"-alpha", "0.6", "-o", file}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"localize", "-placement", file, "-fail", "3"}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"localize", "-placement", dir + "/missing.json", "-fail", "3"}); err == nil {
		t.Fatal("missing placement file should error")
	}
}

func TestPlaceWithBranchBoundAndLS(t *testing.T) {
	silence(t)
	for _, algo := range []string{"branchbound", "greedy+ls"} {
		if err := run([]string{"place", "-topology", "Abovenet", "-services", "2",
			"-alpha", "0.5", "-algorithm", algo}); err != nil {
			t.Fatalf("%s: %v", algo, err)
		}
	}
}
