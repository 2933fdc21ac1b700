package placemon

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/graph"
)

// fig1Network is the paper's Fig. 1 example as a facade Network:
// r=0, hosts a..d = 1..4, clients e..h = 5..8.
func fig1Network(t testing.TB) *Network {
	t.Helper()
	edges := []Edge{
		{0, 1}, {0, 2}, {0, 3}, {0, 4},
		{1, 5}, {2, 6}, {3, 7}, {4, 8},
	}
	nw, err := NewNetwork(9, edges)
	if err != nil {
		t.Fatal(err)
	}
	return nw
}

func fig1Services(n int) []Service {
	services := make([]Service, n)
	for i := range services {
		services[i] = Service{Name: "svc", Clients: []int{5, 6, 7, 8}}
	}
	return services
}

func TestNewNetworkValidation(t *testing.T) {
	if _, err := NewNetwork(3, []Edge{{0, 1}}); err == nil {
		t.Fatal("disconnected graph should error")
	}
	if _, err := NewNetwork(2, []Edge{{0, 0}}); err == nil {
		t.Fatal("self loop should error")
	}
	if _, err := NewNetwork(0, nil); !errors.Is(err, graph.ErrEmptyGraph) {
		t.Fatalf("empty graph: %v, want the empty-graph error", err)
	}
	// A negative node count is an error that names it, not a panic.
	for _, edges := range [][]Edge{nil, {{0, 1}}} {
		if _, err := NewNetwork(-1, edges); err == nil || !strings.Contains(err.Error(), "negative node count -1") {
			t.Fatalf("NewNetwork(-1, %v): %v", edges, err)
		}
	}
}

func TestLoadNetwork(t *testing.T) {
	nw, err := Load(strings.NewReader("edge 0 1\nedge 1 2\n"))
	if err != nil {
		t.Fatal(err)
	}
	if nw.NumNodes() != 3 || nw.NumLinks() != 2 {
		t.Fatalf("shape = %d/%d", nw.NumNodes(), nw.NumLinks())
	}
	if got := nw.SuggestedClients(); !reflect.DeepEqual(got, []int{0, 2}) {
		t.Fatalf("SuggestedClients = %v", got)
	}
	if _, err := Load(strings.NewReader("garbage here extra fields")); err == nil {
		t.Fatal("bad input should error")
	}
}

func TestBuildTopology(t *testing.T) {
	for _, name := range TopologyNames() {
		nw, err := BuildTopology(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if nw.NumNodes() == 0 || len(nw.SuggestedClients()) == 0 {
			t.Fatalf("%s: degenerate network", name)
		}
	}
	if _, err := BuildTopology("nope"); err == nil {
		t.Fatal("unknown topology should error")
	}
	if len(TopologyNames()) != 3 {
		t.Fatal("expected 3 built-in topologies")
	}
}

func TestNetworkQueries(t *testing.T) {
	nw := fig1Network(t)
	if d := nw.Distance(5, 0); d != 2 {
		t.Fatalf("Distance = %v, want 2", d)
	}
	if p := nw.PathNodes(5, 0); !reflect.DeepEqual(p, []int{5, 1, 0}) {
		t.Fatalf("PathNodes = %v", p)
	}
	if nw.NodeLabel(0) != "0" {
		t.Fatalf("NodeLabel = %q", nw.NodeLabel(0))
	}
}

func TestPlaceDefaultsGreedyDistinguishability(t *testing.T) {
	nw := fig1Network(t)
	res, err := nw.Place(fig1Services(5), PlaceConfig{Alpha: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Hosts) != 5 {
		t.Fatalf("Hosts = %v", res.Hosts)
	}
	// Fig. 1 discussion: spreading across hosts identifies all 9 nodes.
	if res.Identifiable != 9 {
		t.Fatalf("Identifiable = %d, want 9", res.Identifiable)
	}
	if res.Distinguishable != 45 {
		t.Fatalf("Distinguishable = %d, want 45", res.Distinguishable)
	}
	if res.WorstRelativeDistance > 0.5 {
		t.Fatalf("QoS constraint violated: %v", res.WorstRelativeDistance)
	}
}

func TestPlaceQoSBaseline(t *testing.T) {
	nw := fig1Network(t)
	res, err := nw.Place(fig1Services(5), PlaceConfig{Alpha: 0.5, Algorithm: AlgorithmQoS})
	if err != nil {
		t.Fatal(err)
	}
	for _, h := range res.Hosts {
		if h != 0 {
			t.Fatalf("QoS should stack services on r: %v", res.Hosts)
		}
	}
	if res.Identifiable != 1 {
		t.Fatalf("QoS Identifiable = %d, want 1", res.Identifiable)
	}
}

func TestPlaceAlgorithmsAndObjectives(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(2)
	for _, algo := range []Algorithm{AlgorithmGreedy, AlgorithmLazy, AlgorithmLazyParallel, AlgorithmQoS, AlgorithmRandom, AlgorithmBruteForce} {
		for _, obj := range []ObjectiveKind{ObjectiveCoverage, ObjectiveIdentifiability, ObjectiveDistinguishability} {
			res, err := nw.Place(services, PlaceConfig{Alpha: 0.5, Algorithm: algo, Objective: obj, Seed: 3})
			if err != nil {
				t.Fatalf("%s/%s: %v", algo, obj, err)
			}
			if len(res.Hosts) != 2 {
				t.Fatalf("%s/%s: hosts %v", algo, obj, res.Hosts)
			}
		}
	}
	if _, err := nw.Place(services, PlaceConfig{Algorithm: "nope"}); err == nil {
		t.Fatal("unknown algorithm should error")
	}
	if _, err := nw.Place(services, PlaceConfig{Objective: "nope"}); err == nil {
		t.Fatal("unknown objective should error")
	}
	if _, err := nw.Place(nil, PlaceConfig{}); err == nil {
		t.Fatal("no services should error")
	}
}

// TestPlaceLazyMatchesGreedy checks the facade contract of the lazy
// engine: identical placements and objective values to explicit greedy
// for every objective, fewer evaluations for the submodular ones, and a
// default algorithm that routes submodular objectives through the lazy
// path.
func TestPlaceLazyMatchesGreedy(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(5)
	for _, obj := range []ObjectiveKind{ObjectiveCoverage, ObjectiveIdentifiability, ObjectiveDistinguishability} {
		greedy, err := nw.Place(services, PlaceConfig{Alpha: 0.5, Objective: obj, Algorithm: AlgorithmGreedy})
		if err != nil {
			t.Fatal(err)
		}
		for _, algo := range []Algorithm{AlgorithmLazy, AlgorithmLazyParallel} {
			lazy, err := nw.Place(services, PlaceConfig{Alpha: 0.5, Objective: obj, Algorithm: algo})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(lazy.Hosts, greedy.Hosts) || lazy.Objective != greedy.Objective {
				t.Fatalf("%s/%s: %v (%v) != greedy %v (%v)",
					algo, obj, lazy.Hosts, lazy.Objective, greedy.Hosts, greedy.Objective)
			}
			if obj != ObjectiveIdentifiability && lazy.Evaluations >= greedy.Evaluations {
				t.Fatalf("%s/%s: lazy used %d evaluations, greedy %d",
					algo, obj, lazy.Evaluations, greedy.Evaluations)
			}
		}
		// The default algorithm is lazy exactly when the objective is
		// submodular; identifiability keeps the exact greedy (and its
		// evaluation count) because its gains admit no caching bound.
		def, err := nw.Place(services, PlaceConfig{Alpha: 0.5, Objective: obj})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(def.Hosts, greedy.Hosts) {
			t.Fatalf("default/%s: hosts %v != greedy %v", obj, def.Hosts, greedy.Hosts)
		}
		if obj == ObjectiveIdentifiability && def.Evaluations != greedy.Evaluations {
			t.Fatalf("default/%s: evaluations %d != greedy %d (should not take the lazy path)",
				obj, def.Evaluations, greedy.Evaluations)
		}
		if obj != ObjectiveIdentifiability && def.Evaluations >= greedy.Evaluations {
			t.Fatalf("default/%s: evaluations %d not below greedy %d (lazy default not applied)",
				obj, def.Evaluations, greedy.Evaluations)
		}
	}
	// Lazy cannot honor capacity constraints; only greedy can.
	if _, err := nw.Place(fig1Services(2), PlaceConfig{
		Alpha:     0.5,
		Algorithm: AlgorithmLazy,
		Capacity:  &Capacity{Demand: []float64{1, 1}},
	}); err == nil {
		t.Fatal("capacity with lazy algorithm should error")
	}
}

func TestPlaceWithCapacity(t *testing.T) {
	nw := fig1Network(t)
	res, err := nw.Place(fig1Services(5), PlaceConfig{
		Alpha: 0.5,
		Capacity: &Capacity{
			Demand:       []float64{1, 1, 1, 1, 1},
			HostCapacity: map[int]float64{0: 1, 1: 1, 2: 1, 3: 1, 4: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, h := range res.Hosts {
		if seen[h] {
			t.Fatalf("host %d reused under capacity 1: %v", h, res.Hosts)
		}
		seen[h] = true
	}
}

func TestPlaceWithInterest(t *testing.T) {
	nw := fig1Network(t)
	res, err := nw.Place(fig1Services(2), PlaceConfig{
		Alpha:         0.5,
		Objective:     ObjectiveIdentifiability,
		InterestNodes: []int{0, 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective > 2 {
		t.Fatalf("interest objective = %v, cannot exceed |N_I| = 2", res.Objective)
	}
	if _, err := nw.Place(fig1Services(1), PlaceConfig{
		Objective: ObjectiveIdentifiability, InterestNodes: []int{0}, K: 2,
	}); err == nil {
		t.Fatal("interest with K>1 should error")
	}
	if _, err := nw.Place(fig1Services(1), PlaceConfig{
		Objective: ObjectiveDistinguishability, InterestNodes: []int{0}, K: 2,
	}); err == nil {
		t.Fatal("interest with K>1 should error")
	}
}

func TestCandidateHosts(t *testing.T) {
	nw := fig1Network(t)
	hosts, err := nw.CandidateHosts([]int{5, 6, 7, 8}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(hosts, []int{0}) {
		t.Fatalf("H(0) = %v, want [0]", hosts)
	}
	hosts, err = nw.CandidateHosts([]int{5, 6, 7, 8}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(hosts) != 5 {
		t.Fatalf("H(0.5) = %v", hosts)
	}
}

func TestEvaluateArbitraryPlacement(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(4)
	res, err := nw.Evaluate(services, []int{1, 2, 3, 4}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if res.Identifiable != 9 {
		t.Fatalf("Identifiable = %d, want 9", res.Identifiable)
	}
	if _, err := nw.Evaluate(services, []int{1}, 0.5); err == nil {
		t.Fatal("wrong host count should error")
	}
}

func TestObserveAndLocalize(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(4)
	hosts := []int{1, 2, 3, 4}

	// Fail node a (=1): connections through a fail.
	obs, err := nw.Observe(services, hosts, 0.5, []int{1})
	if err != nil {
		t.Fatal(err)
	}
	if !obs.AnyFailure() {
		t.Fatal("expected failed connections")
	}
	diag, err := nw.Localize(obs, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !diag.Unique() {
		t.Fatalf("candidates = %v, want unique", diag.Candidates)
	}
	if !reflect.DeepEqual(diag.Candidates[0], []int{1}) {
		t.Fatalf("candidate = %v, want [1]", diag.Candidates[0])
	}
	if !reflect.DeepEqual(diag.DefinitelyFailed, []int{1}) {
		t.Fatalf("DefinitelyFailed = %v", diag.DefinitelyFailed)
	}
	if !reflect.DeepEqual(diag.GreedyExplanation, []int{1}) {
		t.Fatalf("GreedyExplanation = %v", diag.GreedyExplanation)
	}
	if diag.Ambiguity() != 0 {
		t.Fatalf("Ambiguity = %d", diag.Ambiguity())
	}
}

func TestObserveNoFailure(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(1)
	obs, err := nw.Observe(services, []int{0}, 0.5, nil)
	if err != nil {
		t.Fatal(err)
	}
	if obs.AnyFailure() {
		t.Fatal("no failures injected")
	}
	if len(obs.Connections) != 4 {
		t.Fatalf("connections = %d, want 4", len(obs.Connections))
	}
}

func TestObserveValidation(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(1)
	if _, err := nw.Observe(services, []int{0, 1}, 0.5, nil); err == nil {
		t.Fatal("host count mismatch should error")
	}
	if _, err := nw.Observe(services, []int{0}, 0.5, []int{99}); err == nil {
		t.Fatal("bad failed node should error")
	}
	if _, err := nw.Localize(&Observation{}, 1); err == nil {
		t.Fatal("hand-rolled observation should error")
	}
}

func TestUncertaintyDegrees(t *testing.T) {
	nw := fig1Network(t)
	services := fig1Services(1)
	// QoS placement (host r): clients and their access nodes pair up.
	deg, err := nw.UncertaintyDegrees(services, []int{0}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if len(deg) != 10 { // 9 nodes + v0
		t.Fatalf("degrees = %v", deg)
	}
	if deg[0] != 0 {
		t.Fatalf("r should be identifiable, degree %d", deg[0])
	}
	if deg[1] != 1 || deg[5] != 1 {
		t.Fatalf("paired nodes should have degree 1: %v", deg)
	}
}

func TestCapacityRequiresGreedy(t *testing.T) {
	nw := fig1Network(t)
	_, err := nw.Place(fig1Services(2), PlaceConfig{
		Alpha:     0.5,
		Algorithm: AlgorithmQoS,
		Capacity:  &Capacity{Demand: []float64{1, 1}},
	})
	if err == nil {
		t.Fatal("capacity with non-greedy algorithm should error")
	}
}
