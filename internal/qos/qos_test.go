package qos

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

func lineRouter(t *testing.T, n int) *routing.Router {
	t.Helper()
	g, err := topology.Line(n)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestNewProfileNoClients(t *testing.T) {
	r := lineRouter(t, 3)
	if _, err := NewProfile(r, nil); err == nil {
		t.Fatal("no clients should error")
	}
}

func TestNewProfileDisconnected(t *testing.T) {
	g := graph.New(3)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewProfile(r, []graph.NodeID{0}); err == nil {
		t.Fatal("unreachable host should error")
	}
}

func TestProfileLine(t *testing.T) {
	// Line 0-1-2-3-4, clients {0, 4}: d(C,h) = max(h, 4-h):
	// h=0→4, h=1→3, h=2→2, h=3→3, h=4→4. dmin=2, dmax=4.
	r := lineRouter(t, 5)
	p, err := NewProfile(r, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{4, 3, 2, 3, 4}
	if !reflect.DeepEqual(p.Dist, want) {
		t.Fatalf("Dist = %v, want %v", p.Dist, want)
	}
	if p.DMin != 2 || p.DMax != 4 {
		t.Fatalf("DMin/DMax = %v/%v", p.DMin, p.DMax)
	}
	if got := p.RelativeDistance(2); got != 0 {
		t.Fatalf("d̄(2) = %v, want 0", got)
	}
	if got := p.RelativeDistance(1); got != 0.5 {
		t.Fatalf("d̄(1) = %v, want 0.5", got)
	}
	if got := p.RelativeDistance(0); got != 1 {
		t.Fatalf("d̄(0) = %v, want 1", got)
	}
}

func TestCandidateHostsGrowWithAlpha(t *testing.T) {
	r := lineRouter(t, 5)
	p, err := NewProfile(r, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.CandidateHosts(0); !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Fatalf("H(0) = %v", got)
	}
	if got := p.CandidateHosts(0.5); !reflect.DeepEqual(got, []graph.NodeID{1, 2, 3}) {
		t.Fatalf("H(0.5) = %v", got)
	}
	if got := p.CandidateHosts(1); len(got) != 5 {
		t.Fatalf("H(1) = %v, want all nodes", got)
	}
	// Negative α clamps to 0 and stays nonempty.
	if got := p.CandidateHosts(-1); !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Fatalf("H(-1) = %v", got)
	}
}

func TestCandidateHostsMonotoneInAlpha(t *testing.T) {
	topo := topology.MustBuild(topology.Tiscali)
	r, err := routing.New(topo.Graph)
	if err != nil {
		t.Fatal(err)
	}
	clients := topo.CandidateClients[:3]
	p, err := NewProfile(r, clients)
	if err != nil {
		t.Fatal(err)
	}
	prev := 0
	for _, alpha := range []float64{0, 0.2, 0.4, 0.6, 0.8, 1} {
		cur := len(p.CandidateHosts(alpha))
		if cur < prev {
			t.Fatalf("candidate count decreased at α=%v: %d < %d", alpha, cur, prev)
		}
		prev = cur
	}
	if prev != topo.Graph.NumNodes() {
		t.Fatalf("H(1) should contain all %d nodes, got %d", topo.Graph.NumNodes(), prev)
	}
}

func TestRelativeDistanceDegenerate(t *testing.T) {
	// Single-node graph: every host equidistant → d̄ ≡ 0.
	g := graph.New(1)
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewProfile(r, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.RelativeDistance(0); got != 0 {
		t.Fatalf("d̄ = %v, want 0", got)
	}
	if got := p.CandidateHosts(0); len(got) != 1 {
		t.Fatalf("H(0) = %v", got)
	}
}

func TestBestHost(t *testing.T) {
	r := lineRouter(t, 5)
	p, err := NewProfile(r, []graph.NodeID{0, 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := p.BestHost(); got != 2 {
		t.Fatalf("BestHost = %d, want 2", got)
	}
	// Tie case: clients {0}: every h has d = h, best is 0.
	p2, err := NewProfile(r, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.BestHost(); got != 0 {
		t.Fatalf("BestHost = %d, want 0", got)
	}
}

func TestCandidatesBatch(t *testing.T) {
	r := lineRouter(t, 5)
	ps, err := NewProfiles(r, [][]graph.NodeID{{0, 4}, {0}})
	if err != nil {
		t.Fatal(err)
	}
	if got := ps[0].CandidateHosts(0); !reflect.DeepEqual(got, []graph.NodeID{2}) {
		t.Fatalf("H_0 = %v", got)
	}
	if got := ps[1].CandidateHosts(0); !reflect.DeepEqual(got, []graph.NodeID{0}) {
		t.Fatalf("H_1 = %v", got)
	}
	if _, err := NewProfiles(r, [][]graph.NodeID{{0}, nil}); err == nil {
		t.Fatal("empty client set should error")
	}
}

// TestSweptProfilesMatchTreeFold requires the profiles NewProfiles sweeps
// on random hop-count graphs to equal the per-client tree fold, the path
// weighted graphs take, set for set and value for value; on a
// disconnected graph both must fail with the same error. The sweep must
// build no tree.
func TestSweptProfilesMatchTreeFold(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	split := 0
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(150)
		g := graph.New(n)
		// A random tree keeps most graphs connected; extra edges add
		// cycles, and a few graphs skip a tree edge and split.
		for v := 1; v < n; v++ {
			if trial%10 != 9 || rng.Intn(8) != 0 {
				if err := g.AddEdge(v, rng.Intn(v)); err != nil {
					t.Fatal(err)
				}
			}
		}
		for i := rng.Intn(n); i > 0; i-- {
			if u, v := rng.Intn(n), rng.Intn(n); u != v && !g.HasEdge(u, v) {
				if err := g.AddEdge(u, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		sets := make([][]graph.NodeID, 1+rng.Intn(10))
		for i := range sets {
			for j := 1 + rng.Intn(40); j > 0; j-- {
				sets[i] = append(sets[i], rng.Intn(n))
			}
		}
		r, err := routing.NewLazy(g)
		if err != nil {
			t.Fatal(err)
		}
		searches := graph.Searches()
		swept, err := NewProfiles(r, sets)
		if built := graph.Searches() - searches; built != 0 {
			t.Fatalf("trial %d: the sweep built %d trees", trial, built)
		}
		for i, clients := range sets {
			folded, ferr := newProfile(treeFold(r, clients))
			if err != nil || ferr != nil {
				if err == nil || ferr == nil || i > 0 || err.Error() != ferr.Error() {
					t.Fatalf("trial %d set %d: sweep error %v, fold error %v", trial, i, err, ferr)
				}
				split++
				break
			}
			if !reflect.DeepEqual(swept[i], folded) {
				t.Fatalf("trial %d set %d %v: swept %+v, folded %+v", trial, i, clients, swept[i], folded)
			}
		}
	}
	if split == 0 {
		t.Fatal("no trial drew a disconnected graph")
	}
}
