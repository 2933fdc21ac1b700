package monitor

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/bitset"
	"repro/internal/combinat"
)

// refSignatureClass is one signature class of the reference enumeration:
// the number of failure sets in F_k with that signature, and which nodes
// lie in every member set (and) and in some member set (or).
type refSignatureClass struct {
	count int64
	and   *bitset.Set
	or    *bitset.Set
}

// refClassify is the reference the class-level counts are checked
// against: every failure set of F_k = {F ⊆ N : |F| ≤ k}, enumerated node
// by node and grouped by the union of its members' signatures. It costs
// Θ(|F_k|·k) unions.
func refClassify(ps *PathSet, k int) map[string]*refSignatureClass {
	n := ps.NumNodes()
	sigs := ps.Signatures()
	classes := map[string]*refSignatureClass{}
	sig := bitset.New(ps.Len())
	combinat.SubsetsUpTo(n, k, func(f []int) bool {
		sig.Clear()
		for _, v := range f {
			sig.UnionWith(sigs[v])
		}
		key := sig.Key()
		cl, ok := classes[key]
		member := bitset.FromIndices(n, f...)
		if !ok {
			cl = &refSignatureClass{and: member.Clone(), or: member}
			classes[key] = cl
		} else {
			cl.and.IntersectWith(member)
			cl.or.UnionWith(member)
		}
		cl.count++
		return true
	})
	return classes
}

// The reference measures read one refClassify result.

func refDistinguishabilityK(ps *PathSet, k int, classes map[string]*refSignatureClass) int64 {
	if k < 0 {
		return 0
	}
	total := combinat.Pairs(combinat.NumFailureSets(ps.NumNodes(), k))
	for _, cl := range classes {
		total -= combinat.Pairs(cl.count)
	}
	return total
}

// refIdentifiableNodesK keeps the nodes every signature class is
// homogeneous at: in all of its member sets or in none.
func refIdentifiableNodesK(ps *PathSet, classes map[string]*refSignatureClass) *bitset.Set {
	identifiable := bitset.New(ps.NumNodes())
	for v := 0; v < ps.NumNodes(); v++ {
		identifiable.Add(v)
	}
	for _, cl := range classes {
		identifiable.DifferenceWith(cl.or.Difference(cl.and))
	}
	return identifiable
}

func refUncertaintyK(ps *PathSet, f []int, classes map[string]*refSignatureClass) int64 {
	return classes[FailureSignature(ps.Signatures(), f, ps.Len()).Key()].count - 1
}

func refAverageUncertaintyK(ps *PathSet, k int, classes map[string]*refSignatureClass) float64 {
	m := combinat.NumFailureSets(ps.NumNodes(), k)
	if m == 0 {
		return 0
	}
	var sum int64
	for _, cl := range classes {
		sum += cl.count * (cl.count - 1)
	}
	return float64(sum) / float64(m)
}

func refIdentifiableFailureSetsK(classes map[string]*refSignatureClass) int64 {
	var count int64
	for _, cl := range classes {
		if cl.count == 1 {
			count++
		}
	}
	return count
}

// randomFailurePaths draws up to maxPaths paths over n nodes: mostly
// short routes, some random subsets, the odd repeat of an earlier path
// (every path keeps at least one node, as PathSet requires).
func randomFailurePaths(rng *rand.Rand, n, maxPaths int) *PathSet {
	ps := NewPathSet(n)
	for i, count := 0, rng.Intn(maxPaths+1); i < count; i++ {
		p := bitset.New(n)
		switch r := rng.Intn(10); {
		case r == 0 && i > 0:
			p = ps.Path(rng.Intn(i)).Clone()
		case r < 3:
			prob := rng.Float64()
			for v := 0; v < n; v++ {
				if rng.Float64() < prob {
					p.Add(v)
				}
			}
		default:
			start := rng.Intn(n)
			for j := 0; j < 1+rng.Intn(5) && start+j < n; j++ {
				p.Add(start + j)
			}
		}
		if p.Empty() {
			p.Add(rng.Intn(n))
		}
		if err := ps.Add(p); err != nil {
			panic(err)
		}
	}
	return ps
}

// checkClassCounts compares every general-k measure on ps at budget k
// with the node-level reference, UncertaintyK on the empty set and on a
// few random failure sets of at most k nodes (repeats allowed).
func checkClassCounts(t *testing.T, rng *rand.Rand, ps *PathSet, k int) {
	t.Helper()
	classes := refClassify(ps, k)
	if got, want := DistinguishabilityK(ps, k), refDistinguishabilityK(ps, k, classes); got != want {
		t.Fatalf("n=%d paths=%d k=%d: D_k = %d, reference %d", ps.NumNodes(), ps.Len(), k, got, want)
	}
	if got, want := IdentifiableNodesK(ps, k), refIdentifiableNodesK(ps, classes); !got.Equal(want) {
		t.Fatalf("n=%d paths=%d k=%d: S_k = %v, reference %v", ps.NumNodes(), ps.Len(), k, got, want)
	}
	if got, want := AverageUncertaintyK(ps, k), refAverageUncertaintyK(ps, k, classes); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("n=%d paths=%d k=%d: average uncertainty %v, reference %v", ps.NumNodes(), ps.Len(), k, got, want)
	}
	if got, want := IdentifiableFailureSetsK(ps, k), refIdentifiableFailureSetsK(classes); got != want {
		t.Fatalf("n=%d paths=%d k=%d: identifiable failure sets %d, reference %d", ps.NumNodes(), ps.Len(), k, got, want)
	}
	for trial := 0; trial < 4; trial++ {
		var f []int
		if trial > 0 {
			for size := rng.Intn(k + 1); len(f) < size; {
				f = append(f, rng.Intn(ps.NumNodes()))
			}
		}
		got, err := UncertaintyK(ps, k, f)
		if err != nil {
			t.Fatalf("k=%d F=%v: %v", k, f, err)
		}
		if want := refUncertaintyK(ps, f, classes); got != want {
			t.Fatalf("n=%d paths=%d k=%d F=%v: I_k = %d, reference %d", ps.NumNodes(), ps.Len(), k, f, got, want)
		}
	}
}

// TestClassCountsMatchEnumeration checks the class-level counts against
// the node-level enumeration on 2 000 seeded random path sets over 1–14
// nodes with up to 9 paths, at every k from 0 to 4.
func TestClassCountsMatchEnumeration(t *testing.T) {
	rng := rand.New(rand.NewSource(2016))
	for trial := 0; trial < 2000; trial++ {
		ps := randomFailurePaths(rng, 1+rng.Intn(14), 9)
		for k := 0; k <= 4; k++ {
			checkClassCounts(t, rng, ps, k)
		}
	}
}

// FuzzClassify draws a random path set over 1–16 nodes with up to 9
// paths and a budget k of 0–4, and requires D_k, S_k, UncertaintyK,
// AverageUncertaintyK and IdentifiableFailureSetsK to match the
// node-level reference.
func FuzzClassify(f *testing.F) {
	f.Add(int64(1), uint8(5), uint8(2))
	f.Add(int64(7), uint8(15), uint8(4))
	f.Add(int64(42), uint8(0), uint8(1))
	f.Add(int64(-3), uint8(11), uint8(3))
	f.Add(int64(2016), uint8(8), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, k uint8) {
		rng := rand.New(rand.NewSource(seed))
		ps := randomFailurePaths(rng, 1+int(nodes)%16, 9)
		checkClassCounts(t, rng, ps, int(k)%5)
	})
}
