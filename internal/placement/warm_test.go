package placement

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// warmTestSpec is small enough that every property-test step re-solves
// in milliseconds yet has a real three-tier hierarchy for edge deltas
// to reroute through.
var warmTestSpec = topology.HierarchySpec{
	Name: "warm-h", Core: 4, AggPerCore: 2, EdgePerAgg: 3, HostsPerEdge: 2, Seed: 11,
}

// warmInstance rebuilds the warmTestSpec topology with the given extra
// edges applied on top of the base wiring and returns a placement
// instance over three services drawn from the host tier. The router is
// lazy, as the server's re-placement path uses it.
func warmInstance(t *testing.T, extras [][2]int) *Instance {
	t.Helper()
	base, err := topology.BuildHierarchy(warmTestSpec)
	if err != nil {
		t.Fatal(err)
	}
	g := graph.New(base.Graph.NumNodes())
	for _, e := range base.Graph.Edges() {
		if err := g.AddWeightedEdge(e.U, e.V, e.Weight); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range extras {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	r, err := routing.NewLazy(g)
	if err != nil {
		t.Fatal(err)
	}
	cc := base.CandidateClients
	svcs := []Service{
		{Name: "a", Clients: cc[:len(cc)/3]},
		{Name: "b", Clients: cc[len(cc)/3 : 2*len(cc)/3]},
		{Name: "c", Clients: cc[2*len(cc)/3:]},
	}
	inst, err := NewInstance(r, svcs, 0.6)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestWarmPlacerMatchesColdAcrossDeltas is the warm-start property
// test: after every step of a random sequence of topology edge deltas
// (toggling chords between infrastructure routers), the warm-start
// placement must be bit-identical — hosts, order, value — to a cold
// lazy run on the step's topology, and every cached gain it served must
// be exactly one evaluation the cold run spent.
func TestWarmPlacerMatchesColdAcrossDeltas(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	// Candidate chords between edge routers under different cores.
	aggBase := warmTestSpec.Core
	edgeBase := aggBase + warmTestSpec.Core*warmTestSpec.AggPerCore
	numEdge := warmTestSpec.Core * warmTestSpec.AggPerCore * warmTestSpec.EdgePerAgg
	var chords [][2]int
	for i := 0; i < numEdge; i += 5 {
		for j := i + 3; j < numEdge; j += 7 {
			chords = append(chords, [2]int{edgeBase + i, edgeBase + j})
		}
	}
	active := map[int]bool{}
	current := func() [][2]int {
		var out [][2]int
		for i, c := range chords {
			if active[i] {
				out = append(out, c)
			}
		}
		return out
	}

	for _, obj := range []Objective{NewCoverage(), mustDist1(t)} {
		w := NewWarmPlacer()
		for i := range active {
			delete(active, i)
		}
		for step := 0; step < 8; step++ {
			if step > 0 {
				i := rng.Intn(len(chords))
				active[i] = !active[i]
			}
			inst := warmInstance(t, current())
			warm, err := runWith(inst, obj, Options{Workers: 1, Warm: w})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			cold, err := runWith(warmInstance(t, current()), obj, Options{})
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if !reflect.DeepEqual(warm.Placement.Hosts, cold.Placement.Hosts) ||
				!reflect.DeepEqual(warm.Order, cold.Order) || warm.Value != cold.Value {
				t.Fatalf("step %d (%s): warm %v/%v (%v) != cold %v/%v (%v)",
					step, obj.Name(), warm.Placement.Hosts, warm.Order, warm.Value,
					cold.Placement.Hosts, cold.Order, cold.Value)
			}
			if warm.WarmReused > len(inst.elements) || warm.Evaluations+warm.WarmReused != cold.Evaluations {
				t.Fatalf("step %d: %d evaluations + %d reused gains != cold %d (ground set %d)",
					step, warm.Evaluations, warm.WarmReused, cold.Evaluations, len(inst.elements))
			}
			if step == 0 && warm.WarmReused != 0 {
				t.Fatalf("cold first run reused %d gains", warm.WarmReused)
			}
		}
	}
}

// TestWarmPlacerNoChangeReusesEverything pins the best case: a repeat
// run on an unchanged topology serves every round-0 gain from cache and
// spends strictly fewer evaluations than the cold engine.
func TestWarmPlacerNoChangeReusesEverything(t *testing.T) {
	obj := NewCoverage()
	w := NewWarmPlacer()
	inst := warmInstance(t, nil)
	first, err := runWith(inst, obj, Options{Workers: 1, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	if first.WarmReused != 0 {
		t.Fatalf("first run reused %d gains, want all recomputed", first.WarmReused)
	}
	again, err := runWith(warmInstance(t, nil), obj, Options{Workers: 1, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	if again.WarmReused != len(inst.elements) {
		t.Fatalf("repeat run reused %d of %d gains, want all", again.WarmReused, len(inst.elements))
	}
	if !reflect.DeepEqual(again.Placement.Hosts, first.Placement.Hosts) {
		t.Fatal("repeat run changed the placement")
	}
	if again.Evaluations >= first.Evaluations {
		t.Fatalf("repeat run evaluations %d not below cold %d", again.Evaluations, first.Evaluations)
	}
}

// TestWarmPlacerInvalidation covers the cache-scoping rules: switching
// objectives must drop the cache, and a local edge delta must leave the
// untouched majority of elements cached.
func TestWarmPlacerInvalidation(t *testing.T) {
	w := NewWarmPlacer()
	opts := Options{Workers: 1, Warm: w}
	if _, err := runWith(warmInstance(t, nil), NewCoverage(), opts); err != nil {
		t.Fatal(err)
	}
	// Different objective: nothing may be reused.
	res, err := runWith(warmInstance(t, nil), mustDist1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmReused != 0 {
		t.Fatalf("objective switch reused %d gains", res.WarmReused)
	}
	// A link between two hosts on the same edge router shortens only the
	// path between that pair (it cannot serve as transit for any other
	// pair), so almost every element keeps its path signature and the
	// cache must survive the delta largely intact.
	hostBase := warmTestSpec.NumNodes() - warmTestSpec.Core*warmTestSpec.AggPerCore*
		warmTestSpec.EdgePerAgg*warmTestSpec.HostsPerEdge
	res, err = runWith(warmInstance(t, [][2]int{{hostBase, hostBase + 1}}), mustDist1(t), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.WarmReused == 0 {
		t.Fatal("local edge delta invalidated the whole cache")
	}
}

// TestPathSignature pins the cache-key mechanism directly: signatures
// must be insensitive to nothing and sensitive to everything — any
// change in path membership, path count, or order-preserving content
// must change the fingerprint.
func TestPathSignature(t *testing.T) {
	mk := func(nodes ...[]int) []*bitset.Sparse {
		out := make([]*bitset.Sparse, len(nodes))
		for i, ns := range nodes {
			out[i] = bitset.SparseFromNodes(16, ns)
		}
		return out
	}
	base := signature(mk([]int{0, 1, 2}, []int{3, 4}))
	if base != signature(mk([]int{0, 1, 2}, []int{3, 4})) {
		t.Fatal("identical path sets hashed differently")
	}
	for name, other := range map[string][]*bitset.Sparse{
		"rerouted path":  mk([]int{0, 1, 5}, []int{3, 4}),
		"dropped path":   mk([]int{0, 1, 2}),
		"extra path":     mk([]int{0, 1, 2}, []int{3, 4}, []int{5}),
		"swapped order":  mk([]int{3, 4}, []int{0, 1, 2}),
		"moved boundary": mk([]int{0, 1}, []int{2, 3, 4}),
	} {
		if signature(other) == base {
			t.Fatalf("%s produced a colliding signature", name)
		}
	}
}

// TestWarmPlacerNonSubmodularFallback: identifiability cannot be warm
// started; a warm run must produce the eager engine's result with no
// reused gains, and leave the cache untouched.
func TestWarmPlacerNonSubmodularFallback(t *testing.T) {
	ident, err := NewIdentifiability(1)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWarmPlacer()
	inst := paperInstances(t, 0.6)["Abovenet"]
	got, err := runWith(inst, ident, Options{Workers: 1, Warm: w})
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmReused != 0 || w.gains != nil {
		t.Fatalf("fallback reused %d gains and cached %d", got.WarmReused, len(w.gains))
	}
	exact, err := runWith(inst, ident, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Placement.Hosts, exact.Placement.Hosts) {
		t.Fatal("fallback placement differs from the eager engine's")
	}
}

// TestWarmPlacerNilObjective pins the error surface.
func TestWarmPlacerNilObjective(t *testing.T) {
	w := NewWarmPlacer()
	if _, err := runWith(warmInstance(t, nil), nil, Options{Workers: 1, Warm: w}); err == nil {
		t.Fatal("nil objective should error")
	}
}
