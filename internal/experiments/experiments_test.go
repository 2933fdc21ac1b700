package experiments

import (
	"strings"
	"testing"

	"repro/internal/topology"
)

func prepare(t testing.TB, name string) *Prepared {
	t.Helper()
	w, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(w)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPaperWorkloads(t *testing.T) {
	ws := PaperWorkloads()
	if len(ws) != 3 {
		t.Fatalf("workloads = %d", len(ws))
	}
	if ws[2].Topo.Name != "AT&T" || ws[2].NumServices != 7 {
		t.Fatalf("AT&T workload = %+v", ws[2])
	}
	for _, w := range ws {
		if w.ClientsPerService != 3 {
			t.Fatalf("clients per service = %d, want 3", w.ClientsPerService)
		}
	}
	if _, err := WorkloadByName("nope"); err == nil {
		t.Fatal("unknown workload should error")
	}
}

func TestPrepareRoundRobinClients(t *testing.T) {
	p := prepare(t, "Tiscali")
	if len(p.Services) != 3 {
		t.Fatalf("services = %d", len(p.Services))
	}
	pool := p.Topo.CandidateClients
	// Round-robin: service 0 gets pool[0..2], service 1 pool[3..5], etc.
	for s, svc := range p.Services {
		if len(svc.Clients) != 3 {
			t.Fatalf("service %d has %d clients", s, len(svc.Clients))
		}
		for i, c := range svc.Clients {
			if want := pool[(s*3+i)%len(pool)]; c != want {
				t.Fatalf("service %d client %d = %d, want %d", s, i, c, want)
			}
		}
	}
}

func TestPrepareValidation(t *testing.T) {
	if _, err := Prepare(Workload{Topo: topology.Abovenet, NumServices: 0, ClientsPerService: 3}); err == nil {
		t.Fatal("zero services should error")
	}
	if _, err := Prepare(Workload{Topo: topology.Abovenet, NumServices: 1, ClientsPerService: 0}); err == nil {
		t.Fatal("zero clients should error")
	}
	// More clients per service than the pool offers.
	if _, err := Prepare(Workload{Topo: topology.Abovenet, NumServices: 1, ClientsPerService: 99}); err == nil {
		t.Fatal("oversubscribed clients should error")
	}
}

func TestTableIRender(t *testing.T) {
	rows, err := TableI()
	if err != nil {
		t.Fatal(err)
	}
	text := RenderTableI(rows)
	for _, want := range []string{"Abovenet", "Tiscali", "AT&T", "108"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Table I missing %q:\n%s", want, text)
		}
	}
}

func TestFig4MonotoneMedians(t *testing.T) {
	p := prepare(t, "Abovenet")
	rows, err := Fig4(p, DefaultAlphas())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 11 {
		t.Fatalf("rows = %d", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		if rows[i].Summary.Median < rows[i-1].Summary.Median {
			t.Fatalf("median decreased at α=%v", rows[i].Alpha)
		}
	}
	// α = 1 admits every node.
	last := rows[len(rows)-1].Summary
	if last.Min != float64(p.Topo.Graph.NumNodes()) {
		t.Fatalf("α=1 candidate count = %v, want %d", last.Min, p.Topo.Graph.NumNodes())
	}
	if !strings.Contains(RenderFig4("Abovenet", rows), "median") {
		t.Fatal("render missing header")
	}
}

func TestMonitoringCurvesAbovenetWithBF(t *testing.T) {
	p := prepare(t, "Abovenet")
	alphas := []float64{0, 0.5, 1}
	curves, err := MonitoringCurves(p, CurvesConfig{
		Alphas:    alphas,
		IncludeBF: true,
		RDSeeds:   3,
		Seed:      1,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algo{AlgoBF, AlgoGC, AlgoGI, AlgoGD, AlgoQoS, AlgoRD} {
		series, ok := curves[algo]
		if !ok {
			t.Fatalf("missing series %s", algo)
		}
		if len(series) != len(alphas) {
			t.Fatalf("%s series has %d points", algo, len(series))
		}
	}
	for i := range alphas {
		bf, gc, gi, gd := curves[AlgoBF][i], curves[AlgoGC][i], curves[AlgoGI][i], curves[AlgoGD][i]
		// BF dominates each greedy in its own measure.
		if gc.Coverage > bf.Coverage {
			t.Fatalf("α=%v: GC coverage %v beats BF %v", alphas[i], gc.Coverage, bf.Coverage)
		}
		if gi.S1 > bf.S1 {
			t.Fatalf("α=%v: GI S1 %v beats BF %v", alphas[i], gi.S1, bf.S1)
		}
		if gd.D1 > bf.D1 {
			t.Fatalf("α=%v: GD D1 %v beats BF %v", alphas[i], gd.D1, bf.D1)
		}
		// Theorem 11: greedy within half of optimum for the submodular two.
		if gc.Coverage < bf.Coverage/2 {
			t.Fatalf("α=%v: GC below 1/2 BF", alphas[i])
		}
		if gd.D1 < bf.D1/2 {
			t.Fatalf("α=%v: GD below 1/2 BF", alphas[i])
		}
	}
	// The paper's headline: at relaxed QoS, GD beats QoS in
	// distinguishability.
	last := len(alphas) - 1
	if curves[AlgoGD][last].D1 <= curves[AlgoQoS][last].D1 {
		t.Fatalf("GD D1 %v should exceed QoS D1 %v at α=1",
			curves[AlgoGD][last].D1, curves[AlgoQoS][last].D1)
	}
}

func TestMonitoringCurvesDefaults(t *testing.T) {
	p := prepare(t, "Abovenet")
	curves, err := MonitoringCurves(p, CurvesConfig{Alphas: []float64{0.4}})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := curves[AlgoBF]; ok {
		t.Fatal("BF should be absent by default")
	}
	if len(curves[AlgoGD]) != 1 {
		t.Fatal("single-α sweep broken")
	}
}

func TestRenderCurvesAndCSV(t *testing.T) {
	p := prepare(t, "Abovenet")
	curves, err := MonitoringCurves(p, CurvesConfig{Alphas: []float64{0, 1}, RDSeeds: 2})
	if err != nil {
		t.Fatal(err)
	}
	text := RenderCurves("Fig. 5", "Abovenet", curves, MeasureD1)
	if !strings.Contains(text, "GD") || !strings.Contains(text, "distinguishability") {
		t.Fatalf("render output:\n%s", text)
	}
	var csv strings.Builder
	if err := WriteCurvesCSV(&csv, "Abovenet", curves); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(csv.String(), "Abovenet,GD,0,") {
		t.Fatalf("csv output:\n%s", csv.String())
	}
	if len(Measures()) != 3 {
		t.Fatal("Measures should list 3 panels")
	}
}

func TestFig8Distributions(t *testing.T) {
	p := prepare(t, "Abovenet")
	dists, err := Fig8(p, Fig8Config{Alpha: 0.6, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range []Algo{AlgoGC, AlgoGI, AlgoGD, AlgoQoS, AlgoRD} {
		d, ok := dists[algo]
		if !ok {
			t.Fatalf("missing distribution for %s", algo)
		}
		sum := 0.0
		for _, f := range d.Frac {
			sum += f
		}
		if sum < 0.999 || sum > 1.001 {
			t.Fatalf("%s distribution does not sum to 1: %v", algo, sum)
		}
		// N + 1 nodes of Q (v0 included).
		if d.N != p.Topo.Graph.NumNodes()+1 {
			t.Fatalf("%s distribution over %d samples, want %d", algo, d.N, p.Topo.Graph.NumNodes()+1)
		}
	}
	text := RenderFig8("Abovenet", 0.6, dists)
	if !strings.Contains(text, "degree") {
		t.Fatalf("Fig8 render:\n%s", text)
	}
}
