package experiments

import (
	"strings"
	"testing"
)

func TestParseGridSpecRejectsBadInput(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"empty spec", `{}`, "no placements"},
		{"unknown key", `{"placements":[{"name":"a","kind":"fig4","topology":"Abovenet","bogus":1}]}`, "bogus"},
		{"unknown kind", `{"placements":[{"name":"a","kind":"fig9","topology":"Abovenet"}]}`, "unknown kind"},
		{"unknown topology", `{"placements":[{"name":"a","kind":"fig4","topology":"nosuch"}]}`, "no workload"},
		{"missing name", `{"placements":[{"kind":"fig4","topology":"Abovenet"}]}`, "missing name"},
		{"duplicate name", `{"placements":[{"name":"a","kind":"fig4","topology":"Abovenet"},{"name":"a","kind":"fig4","topology":"Tiscali"}]}`, "duplicate"},
		{"path in name", `{"placements":[{"name":"../a","kind":"fig4","topology":"Abovenet"}]}`, "file stem"},
		{"negative repeats", `{"placements":[{"name":"a","kind":"fig4","topology":"Abovenet","repeats":-1}]}`, "negative repeats"},
		{"loadgen no rps", `{"loadgen":[{"name":"l","duration":"1s"}]}`, "rps"},
		{"loadgen no duration", `{"loadgen":[{"name":"l","rps":10}]}`, "duration"},
		{"loadgen dup", `{"loadgen":[{"name":"l","rps":10,"duration":"1s"},{"name":"l","rps":10,"duration":"1s"}]}`, "duplicate"},
	}
	for _, tc := range cases {
		_, err := ParseGridSpec([]byte(tc.raw))
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestParseGridSpecValid(t *testing.T) {
	raw := `{
		"defaults": {"seed": 7, "rdseeds": 3},
		"placements": [
			{"name": "a", "kind": "fig4", "topology": "Abovenet", "golden": "fig4_abovenet.csv"},
			{"name": "b", "kind": "curves", "topology": "Tiscali", "repeats": 2}
		],
		"loadgen": [
			{"name": "smoke", "rps": 100, "duration": "2s", "slo": {"max_p99_seconds": 1}}
		]
	}`
	spec, err := ParseGridSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	if spec.Defaults.Seed != 7 || spec.Defaults.RDSeeds != 3 {
		t.Fatalf("defaults misparsed: %+v", spec.Defaults)
	}
	if len(spec.Placements) != 2 || len(spec.Loadgen) != 1 {
		t.Fatalf("wrong counts: %+v", spec)
	}
	seed, rd := spec.seedOf(spec.Placements[0])
	if seed != 7 || rd != 3 {
		t.Fatalf("seedOf = (%d, %d), want (7, 3)", seed, rd)
	}
}

// TestExecutePlacementReproducible: the repeats machinery accepts a
// deterministic run, and the produced CSV carries the expected header.
func TestExecutePlacementReproducible(t *testing.T) {
	spec := GridSpec{Defaults: GridDefaults{Seed: 1, RDSeeds: 2}}
	run := PlacementRun{Name: "fig4", Kind: "fig4", Topology: "Abovenet", Repeats: 3}
	csv, text, err := spec.ExecutePlacement(run)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "topology,alpha,min,") {
		t.Fatalf("unexpected csv header:\n%s", csv)
	}
	if !strings.Contains(text, "Abovenet") {
		t.Fatalf("rendered text missing topology:\n%s", text)
	}

	// A second independent execution matches the first byte for byte.
	csv2, _, err := spec.ExecutePlacement(run)
	if err != nil {
		t.Fatal(err)
	}
	if string(csv) != string(csv2) {
		t.Fatal("two executions of the same run differ")
	}
}

// TestExecutePlacementKinds smoke-runs every remaining kind on the
// smallest topology that supports it.
func TestExecutePlacementKinds(t *testing.T) {
	spec := GridSpec{Defaults: GridDefaults{Seed: 1, RDSeeds: 1}}
	runs := []PlacementRun{
		{Name: "c", Kind: "curves", Topology: "Abovenet", Alphas: []float64{0, 1}},
		{Name: "k", Kind: "k2", Topology: "Abovenet", Alphas: []float64{0, 1}},
		{Name: "f8", Kind: "fig8", Topology: "Abovenet", Alpha: 0.6},
		{Name: "op", Kind: "oploop", Topology: "Abovenet", Alpha: 0.6,
			ProbePeriods: []float64{5}, Horizon: 500},
	}
	for _, run := range runs {
		csv, _, err := spec.ExecutePlacement(run)
		if err != nil {
			t.Fatalf("%s: %v", run.Name, err)
		}
		if len(splitCSVLines(csv)) < 2 {
			t.Fatalf("%s: csv has no data rows:\n%s", run.Name, csv)
		}
	}
}

func TestValidateCSV(t *testing.T) {
	golden := []byte("topology,alpha,x\nAbovenet,0,1.5\nAbovenet,1,2\n")
	if err := ValidateCSV([]byte("topology,alpha,x\nAbovenet,0,1.5\nAbovenet,1,2\n"), golden); err != nil {
		t.Fatalf("identical csv rejected: %v", err)
	}
	// Numeric cells tolerate formatting-level drift...
	if err := ValidateCSV([]byte("topology,alpha,x\nAbovenet,0,1.5000000000001\nAbovenet,1,2.0\n"), golden); err != nil {
		t.Fatalf("tolerated drift rejected: %v", err)
	}
	// ...but not value-level drift.
	if err := ValidateCSV([]byte("topology,alpha,x\nAbovenet,0,1.6\nAbovenet,1,2\n"), golden); err == nil {
		t.Fatal("numeric drift accepted")
	} else if !strings.Contains(err.Error(), "line 2 col 3") {
		t.Fatalf("drift not located: %v", err)
	}
	// Headers are compared exactly, even when numeric-ish.
	if err := ValidateCSV([]byte("topology,alpha,y\nAbovenet,0,1.5\nAbovenet,1,2\n"), golden); err == nil {
		t.Fatal("header drift accepted")
	}
	// String cells are exact.
	if err := ValidateCSV([]byte("topology,alpha,x\nTiscali,0,1.5\nAbovenet,1,2\n"), golden); err == nil {
		t.Fatal("string drift accepted")
	}
	// Row count must match.
	if err := ValidateCSV([]byte("topology,alpha,x\nAbovenet,0,1.5\n"), golden); err == nil {
		t.Fatal("missing row accepted")
	} else if !strings.Contains(err.Error(), "line count") {
		t.Fatalf("row count not reported: %v", err)
	}
}
