package monitor

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

func TestPartitionEmpty(t *testing.T) {
	pt := NewPartition(5)
	if pt.S1() != 0 {
		t.Fatalf("S1 = %d, want 0", pt.S1())
	}
	if pt.D1() != 0 {
		t.Fatalf("D1 = %d, want 0", pt.D1())
	}
	if pt.Coverage() != 0 {
		t.Fatalf("Coverage = %d, want 0", pt.Coverage())
	}
	if pt.NumGroups() != 1 {
		t.Fatalf("NumGroups = %d, want 1", pt.NumGroups())
	}
}

func TestPartitionZeroNodes(t *testing.T) {
	pt := NewPartition(0)
	if pt.S1() != 0 || pt.D1() != 0 || pt.NumGroups() != 0 {
		t.Fatal("degenerate partition should be all zeros")
	}
	deg := pt.Degrees()
	if len(deg) != 1 || deg[0] != 0 {
		t.Fatalf("Degrees = %v", deg)
	}
}

func TestPartitionRefineSplits(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 0, 1)})
	want := [][]int{{0, 1}, {2, 3}}
	if got := pt.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 1, 2)})
	want = [][]int{{0}, {1}, {2}, {3}}
	if got := pt.Groups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("Groups = %v, want %v", got, want)
	}
	// Node 3 is uncovered, so S1 counts only 0, 1, 2.
	if got := pt.S1(); got != 3 {
		t.Fatalf("S1 = %d, want 3", got)
	}
}

func TestPartitionRefineEmptyNoop(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine(nil)
	if pt.NumGroups() != 1 {
		t.Fatal("Refine(nil) should be a no-op")
	}
}

func TestPartitionRefineUniverseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewPartition(4).Refine([]*bitset.Set{bitset.New(5)})
}

func TestPartitionMatchesEquivalenceGraph(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 100; trial++ {
		n := 2 + rng.Intn(12)
		ps := randomPathSet(rng, n, rng.Intn(8), 5)
		q := NewEquivalenceGraph(ps)
		pt := NewPartitionFromPaths(ps)
		if q.S1() != pt.S1() {
			t.Fatalf("trial %d: S1 %d != %d\npaths=%v", trial, q.S1(), pt.S1(), dumpPaths(ps))
		}
		if q.D1() != pt.D1() {
			t.Fatalf("trial %d: D1 %d != %d\npaths=%v", trial, q.D1(), pt.D1(), dumpPaths(ps))
		}
		// Degrees must agree node by node (v0 = index n).
		qd := make([]int, n+1)
		for v := 0; v <= n; v++ {
			qd[v] = q.Degree(v)
		}
		if pd := pt.Degrees(); !reflect.DeepEqual(qd, pd) {
			t.Fatalf("trial %d: degrees %v != %v", trial, qd, pd)
		}
	}
}

func TestPartitionMatchesGeneralKAtK1(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 60; trial++ {
		n := 2 + rng.Intn(9)
		ps := randomPathSet(rng, n, rng.Intn(6), 4)
		pt := NewPartitionFromPaths(ps)
		if got, want := pt.S1(), IdentifiabilityK(ps, 1); got != want {
			t.Fatalf("trial %d: S1 partition %d != enumeration %d", trial, got, want)
		}
		if got, want := pt.D1(), DistinguishabilityK(ps, 1); got != want {
			t.Fatalf("trial %d: D1 partition %d != enumeration %d", trial, got, want)
		}
	}
}

func TestPartitionIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(10)
		ps := randomPathSet(rng, n, 1+rng.Intn(7), 4)
		batch := NewPartitionFromPaths(ps)
		inc := NewPartition(n)
		for i := 0; i < ps.Len(); i++ {
			inc.Refine([]*bitset.Set{ps.Path(i)})
		}
		if batch.S1() != inc.S1() || batch.D1() != inc.D1() || batch.Coverage() != inc.Coverage() {
			t.Fatalf("trial %d: incremental refinement diverges", trial)
		}
	}
}

func TestPartitionCloneIndependent(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 0)})
	c := pt.Clone()
	c.Refine([]*bitset.Set{bitset.FromIndices(4, 1)})
	if pt.Coverage() != 1 {
		t.Fatal("clone refinement must not affect original")
	}
	if c.Coverage() != 2 {
		t.Fatal("clone should see its own refinement")
	}
}

func TestPartitionManyPathsStringKeys(t *testing.T) {
	// Refining with > 64 paths at once must equal one path at a time
	// (beyond 64 paths the reference refinement in FuzzPartitionRefine
	// switches to string keys).
	n := 80
	paths := make([]*bitset.Set, 70)
	for i := range paths {
		paths[i] = bitset.FromIndices(n, i, i+1)
	}
	pt := NewPartition(n)
	pt.Refine(paths)

	inc := NewPartition(n)
	for _, p := range paths {
		inc.Refine([]*bitset.Set{p})
	}
	if pt.S1() != inc.S1() || pt.D1() != inc.D1() {
		t.Fatalf("string-key path: bulk (S1=%d D1=%d) != incremental (S1=%d D1=%d)",
			pt.S1(), pt.D1(), inc.S1(), inc.D1())
	}
}

func TestPartitionDegreesV0(t *testing.T) {
	pt := NewPartition(4)
	pt.Refine([]*bitset.Set{bitset.FromIndices(4, 0, 1)})
	deg := pt.Degrees()
	// Class {0,1}: degree 1. Class {2,3,v0}: degree 2 each.
	want := []int{1, 1, 2, 2, 2}
	if !reflect.DeepEqual(deg, want) {
		t.Fatalf("Degrees = %v, want %v", deg, want)
	}
}

func TestPartitionString(t *testing.T) {
	pt := NewPartition(3)
	pt.Refine([]*bitset.Set{bitset.FromIndices(3, 0)})
	if got := pt.String(); got != "partition{[0] [1,2]}" {
		t.Fatalf("String = %q", got)
	}
}

func dumpPaths(ps *PathSet) [][]int {
	out := make([][]int, ps.Len())
	for i := range out {
		out[i] = ps.Path(i).Indices()
	}
	return out
}
