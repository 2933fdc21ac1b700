package tomography

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
	"repro/internal/monitor"
)

func mkPathSet(t testing.TB, n int, paths ...[]int) *monitor.PathSet {
	t.Helper()
	ps := monitor.NewPathSet(n)
	for _, p := range paths {
		if err := ps.Add(bitset.FromIndices(n, p...)); err != nil {
			t.Fatal(err)
		}
	}
	return ps
}

func TestNewObservationValidation(t *testing.T) {
	ps := mkPathSet(t, 3, []int{0, 1})
	if _, err := NewObservation(nil, nil); err == nil {
		t.Fatal("nil paths should error")
	}
	if _, err := NewObservation(ps, []bool{true, false}); err == nil {
		t.Fatal("state length mismatch should error")
	}
	o, err := NewObservation(ps, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if !o.AnyFailure() {
		t.Fatal("AnyFailure should be true")
	}
}

func TestObserve(t *testing.T) {
	ps := mkPathSet(t, 4, []int{0, 1}, []int{2, 3})
	o, err := Observe(ps, bitset.FromIndices(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(o.Failed, []bool{true, false}) {
		t.Fatalf("Failed = %v", o.Failed)
	}
	if _, err := Observe(ps, bitset.New(5)); err == nil {
		t.Fatal("universe mismatch should error")
	}
	if _, err := Observe(nil, bitset.New(4)); err == nil {
		t.Fatal("nil paths should error")
	}
}

func TestLocalizeUniqueFailure(t *testing.T) {
	// Three singleton paths: failures are uniquely localizable.
	ps := mkPathSet(t, 3, []int{0}, []int{1}, []int{2})
	o, err := Observe(ps, bitset.FromIndices(3, 1))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Localize(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Unique() {
		t.Fatalf("expected unique diagnosis, got %v", d.Consistent)
	}
	if !reflect.DeepEqual(d.Consistent[0], []int{1}) {
		t.Fatalf("Consistent = %v", d.Consistent)
	}
	if !reflect.DeepEqual(d.DefinitelyFailed, []int{1}) {
		t.Fatalf("DefinitelyFailed = %v", d.DefinitelyFailed)
	}
	if d.Ambiguity() != 0 {
		t.Fatalf("Ambiguity = %d", d.Ambiguity())
	}
}

func TestLocalizeAmbiguous(t *testing.T) {
	// One path {0,1}: a failure of 0 and of 1 are indistinguishable.
	ps := mkPathSet(t, 3, []int{0, 1})
	o, err := Observe(ps, bitset.FromIndices(3, 0))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Localize(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if d.Ambiguity() != 1 {
		t.Fatalf("Ambiguity = %d, want 1", d.Ambiguity())
	}
	if !reflect.DeepEqual(d.PossiblyFailed, []int{0, 1}) {
		t.Fatalf("PossiblyFailed = %v", d.PossiblyFailed)
	}
	if len(d.DefinitelyFailed) != 0 {
		t.Fatalf("DefinitelyFailed = %v", d.DefinitelyFailed)
	}
	if !reflect.DeepEqual(d.Unobserved, []int{2}) {
		t.Fatalf("Unobserved = %v", d.Unobserved)
	}
	if want := [][]int{{0}, {1}}; !reflect.DeepEqual(d.Consistent, want) {
		t.Fatalf("k=1 Consistent = %v, want %v", d.Consistent, want)
	}

	// At k = 2 the unobserved node 2 rides along with each single
	// explanation: F_2 ranges over every node, observed or not.
	d, err = Localize(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := [][]int{{0}, {1}, {0, 1}, {0, 2}, {1, 2}}; !reflect.DeepEqual(d.Consistent, want) {
		t.Fatalf("k=2 Consistent = %v, want %v", d.Consistent, want)
	}
	if !reflect.DeepEqual(d.Unobserved, []int{2}) {
		t.Fatalf("k=2 Unobserved = %v", d.Unobserved)
	}
}

func TestLocalizeNoFailure(t *testing.T) {
	ps := mkPathSet(t, 3, []int{0, 1})
	o, err := Observe(ps, bitset.New(3))
	if err != nil {
		t.Fatal(err)
	}
	d, err := Localize(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Consistent: ∅ and {2} (uncovered node — but wait: {2} has empty
	// signature, so it matches "no failed paths"). Uncovered node failures
	// are inherently invisible.
	if len(d.Consistent) != 2 {
		t.Fatalf("Consistent = %v, want ∅ and {2}", d.Consistent)
	}
	if !reflect.DeepEqual(d.Healthy, []int{0, 1}) {
		t.Fatalf("Healthy = %v", d.Healthy)
	}
}

func TestLocalizeSuccessfulPathPrunes(t *testing.T) {
	// Paths {0,1} failed and {1,2} OK: node 1 is proven healthy, so the
	// only consistent single failure is {0}.
	ps := mkPathSet(t, 3, []int{0, 1}, []int{1, 2})
	o, err := NewObservation(ps, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Localize(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Unique() || !reflect.DeepEqual(d.Consistent[0], []int{0}) {
		t.Fatalf("Consistent = %v, want [[0]]", d.Consistent)
	}
}

func TestLocalizeInconsistent(t *testing.T) {
	// Two failed disjoint paths cannot be explained by k = 1 failures
	// unless a shared node exists — here there is none.
	ps := mkPathSet(t, 4, []int{0, 1}, []int{2, 3})
	o, err := NewObservation(ps, []bool{true, true})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Localize(o, 1); err == nil {
		t.Fatal("expected inconsistency error at k=1")
	}
	// k = 2 finds the four two-node explanations.
	d, err := Localize(o, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Consistent) != 4 {
		t.Fatalf("Consistent = %v, want 4 sets", d.Consistent)
	}
}

func TestLocalizeNegativeK(t *testing.T) {
	ps := mkPathSet(t, 2, []int{0})
	o, err := Observe(ps, bitset.New(2))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Localize(o, -1); err == nil {
		t.Fatal("negative k should error")
	}
}

func TestGreedyExplanation(t *testing.T) {
	// Failed paths {0,1} and {1,2}; healthy path {3}. Node 1 explains both.
	ps := mkPathSet(t, 4, []int{0, 1}, []int{1, 2}, []int{3})
	o, err := NewObservation(ps, []bool{true, true, false})
	if err != nil {
		t.Fatal(err)
	}
	expl, err := GreedyExplanation(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(expl, []int{1}) {
		t.Fatalf("explanation = %v, want [1]", expl)
	}
}

func TestGreedyExplanationNoFailures(t *testing.T) {
	ps := mkPathSet(t, 2, []int{0})
	o, err := NewObservation(ps, []bool{false})
	if err != nil {
		t.Fatal(err)
	}
	expl, err := GreedyExplanation(o)
	if err != nil {
		t.Fatal(err)
	}
	if expl != nil {
		t.Fatalf("explanation = %v, want nil", expl)
	}
}

func TestGreedyExplanationImpossible(t *testing.T) {
	// The failed path's only node also lies on a successful path:
	// logically impossible observation.
	ps := mkPathSet(t, 2, []int{0}, []int{0, 1})
	o, err := NewObservation(ps, []bool{true, false})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := GreedyExplanation(o); err == nil {
		t.Fatal("impossible observation should error")
	}
}

func TestGreedyExplanationCoversAllFailedPaths(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		n := 4 + rng.Intn(8)
		ps := monitor.NewPathSet(n)
		for i := 0; i < 2+rng.Intn(5); i++ {
			start := rng.Intn(n)
			end := start + 1 + rng.Intn(3)
			if end > n {
				end = n
			}
			p := bitset.New(n)
			for v := start; v < end; v++ {
				p.Add(v)
			}
			if err := ps.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		truth := bitset.New(n)
		for v := 0; v < n; v++ {
			if rng.Intn(4) == 0 {
				truth.Add(v)
			}
		}
		o, err := Observe(ps, truth)
		if err != nil {
			t.Fatal(err)
		}
		expl, err := GreedyExplanation(o)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// The explanation must reproduce the observation exactly.
		o2, err := Observe(ps, bitset.FromIndices(n, expl...))
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(o.Failed, o2.Failed) {
			t.Fatalf("trial %d: explanation %v does not reproduce observation", trial, expl)
		}
	}
}

func TestClassifyNodes(t *testing.T) {
	// Paths: {0,1} failed, {1,2} OK; node 3 unobserved; node 4 covered by
	// an OK path {4}.
	ps := mkPathSet(t, 5, []int{0, 1}, []int{1, 2}, []int{4})
	o, err := NewObservation(ps, []bool{true, false, false})
	if err != nil {
		t.Fatal(err)
	}
	d, err := Localize(o, 1)
	if err != nil {
		t.Fatal(err)
	}
	states := ClassifyNodes(o, d)
	want := []NodeState{StateFailed, StateHealthy, StateHealthy, StateUnobserved, StateHealthy}
	if !reflect.DeepEqual(states, want) {
		t.Fatalf("states = %v, want %v", states, want)
	}
}

func TestNodeStateString(t *testing.T) {
	for s, want := range map[NodeState]string{
		StateFailed:     "failed",
		StateHealthy:    "healthy",
		StateAmbiguous:  "ambiguous",
		StateUnknown:    "unknown",
		StateUnobserved: "unobserved",
		NodeState(99):   "NodeState(99)",
	} {
		if s.String() != want {
			t.Errorf("String(%d) = %q, want %q", int(s), s.String(), want)
		}
	}
}

// The paper's central claim end-to-end: a max-distinguishability placement
// yields lower localization ambiguity than a QoS placement. Here we check
// the monitor-tomography contract: ambiguity equals the size of the
// signature class minus one.
func TestAmbiguityMatchesUncertaintyMeasure(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(6)
		ps := monitor.NewPathSet(n)
		for i := 0; i < 1+rng.Intn(4); i++ {
			start := rng.Intn(n)
			end := start + 1 + rng.Intn(3)
			if end > n {
				end = n
			}
			p := bitset.New(n)
			for v := start; v < end; v++ {
				p.Add(v)
			}
			if err := ps.Add(p); err != nil {
				t.Fatal(err)
			}
		}
		truth := []int{rng.Intn(n)}
		o, err := Observe(ps, bitset.FromIndices(n, truth...))
		if err != nil {
			t.Fatal(err)
		}
		d, err := Localize(o, 1)
		if err != nil {
			t.Fatal(err)
		}
		want, err := monitor.UncertaintyK(ps, 1, truth)
		if err != nil {
			t.Fatal(err)
		}
		if int64(d.Ambiguity()) != want {
			t.Fatalf("trial %d: ambiguity %d != |I_1| %d", trial, d.Ambiguity(), want)
		}
	}
}
