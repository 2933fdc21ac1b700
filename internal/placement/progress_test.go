package placement

import (
	"reflect"
	"testing"

	"repro/internal/graph"
	"repro/internal/routing"
	"repro/internal/topology"
)

// progressInstance builds a small deterministic instance for the hook
// tests.
func progressInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := topology.RandomConnected(12, 20, 42)
	if err != nil {
		t.Fatal(err)
	}
	r, err := routing.New(g)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(r, []Service{
		{Name: "a", Clients: []graph.NodeID{0, 1}},
		{Name: "b", Clients: []graph.NodeID{2, 3}},
		{Name: "c", Clients: []graph.NodeID{4, 5}},
	}, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// checkRounds validates the invariants every engine's progress stream
// must satisfy against its final result.
func checkRounds(t *testing.T, engine string, rounds []Round, res *Result) {
	t.Helper()
	if len(rounds) != len(res.Order) {
		t.Fatalf("%s: %d rounds for %d placed services", engine, len(rounds), len(res.Order))
	}
	for i, r := range rounds {
		if r.Index != i {
			t.Errorf("%s round %d: Index = %d", engine, i, r.Index)
		}
		if r.Service != res.Order[i] {
			t.Errorf("%s round %d: Service = %d, want %d", engine, i, r.Service, res.Order[i])
		}
		if r.Host != res.Placement.Hosts[r.Service] {
			t.Errorf("%s round %d: Host = %d, want %d", engine, i, r.Host, res.Placement.Hosts[r.Service])
		}
		if r.Candidates <= 0 {
			t.Errorf("%s round %d: Candidates = %d, want > 0", engine, i, r.Candidates)
		}
		if r.Evaluations <= 0 {
			t.Errorf("%s round %d: Evaluations = %d, want > 0", engine, i, r.Evaluations)
		}
		if r.Gain < 0 {
			t.Errorf("%s round %d: Gain = %v, want ≥ 0", engine, i, r.Gain)
		}
		if r.Duration < 0 {
			t.Errorf("%s round %d: negative duration", engine, i)
		}
	}
}

func TestGreedyProgressHook(t *testing.T) {
	inst := progressInstance(t)
	obj := mustObj(NewDistinguishability(1))

	var rounds []Round
	res, err := runWith(inst, obj, Options{Engine: Eager, Progress: func(r Round) { rounds = append(rounds, r) }})
	if err != nil {
		t.Fatal(err)
	}
	checkRounds(t, "greedy", rounds, res)

	// The eager engine attributes every evaluation to a round.
	total := 0
	for _, r := range rounds {
		total += r.Evaluations
	}
	if total != res.Evaluations {
		t.Fatalf("greedy rounds account for %d evaluations, result says %d", total, res.Evaluations)
	}

	// The hook must not change the computation.
	plain, err := runWith(inst, obj, Options{Engine: Eager})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Placement.Hosts, res.Placement.Hosts) || plain.Evaluations != res.Evaluations {
		t.Fatalf("progress hook changed the placement: %+v vs %+v", res, plain)
	}
}

func TestGreedyLazyProgressHook(t *testing.T) {
	inst := progressInstance(t)
	obj := mustObj(NewDistinguishability(1))

	var rounds []Round
	res, err := runWith(inst, obj, Options{Progress: func(r Round) { rounds = append(rounds, r) }})
	if err != nil {
		t.Fatal(err)
	}
	checkRounds(t, "lazy", rounds, res)

	plain, err := runWith(inst, obj, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.Placement.Hosts, res.Placement.Hosts) || plain.Evaluations != res.Evaluations {
		t.Fatalf("progress hook changed the placement: %+v vs %+v", res, plain)
	}
}

// TestLazyProgressNonSubmodularFallback: identifiability routes to the
// eager engine, and the hook must still fire there.
func TestLazyProgressNonSubmodularFallback(t *testing.T) {
	inst := progressInstance(t)
	obj := mustObj(NewIdentifiability(1))

	var rounds []Round
	res, err := runWith(inst, obj, Options{Progress: func(r Round) { rounds = append(rounds, r) }})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) == 0 {
		t.Fatal("no progress from the non-submodular fallback")
	}
	checkRounds(t, "lazy-fallback", rounds, res)
}
