package monitor

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/combinat"
)

// This file evaluates the general-k measures over failure classes. Nodes
// traversed by exactly the same paths — one class of the k = 1 Partition
// — are interchangeable in every failure set, so the signature of a
// failure set F ∈ F_k = {F ⊆ N : |F| ≤ k} (Section III-B) depends only on
// the set T of classes F touches. classify enumerates those class sets,
// C(m, ≤k) of them for m classes instead of the C(|N|, ≤k) failure sets,
// and groups them by signature union. The counting measures weigh each
// class set by the number of failure sets that touch exactly T; the
// identifiability measure only needs to know which classes the class sets
// of each group share. This is how Ma et al. state k-identifiability, in
// terms of the path sets P_v alone (PAPERS.md). The node-level enumerator
// the values match bit for bit lives on in the tests as their reference.

// classSets is the class-level view of F_k: the k = 1 classes, their
// signatures, and the class sets |T| ≤ k grouped by signature union.
type classSets struct {
	pt     *Partition
	width  int    // signature bytes per class
	sig    []byte // sig[c*width:(c+1)*width] holds the paths through class c
	index  map[string]int
	groups []signatureGroup
}

// signatureGroup is the class sets of F_k sharing one signature union.
type signatureGroup struct {
	count   int64       // failure sets in the group (weighed runs only)
	and, or *bitset.Set // classes in every / some class set (unweighed runs only)
}

// classify groups the class sets of F_k by signature. A weighed run
// counts the failure sets behind each group, which needs |F_k| to fit in
// int64 (NumFailureSets panics otherwise); an unweighed run records which
// classes each group's class sets share instead, and counts nothing. A
// negative k enumerates no class set at all, not even the empty one.
func classify(ps *PathSet, k int, weigh bool) *classSets {
	pt := NewPartitionFromPaths(ps)
	n, m, width := ps.NumNodes(), pt.NumGroups(), (ps.Len()+7)/8
	cs := &classSets{pt: pt, width: width, sig: make([]byte, m*width), index: map[string]int{}}
	for i := 0; i < ps.Len(); i++ {
		ps.Path(i).ForEach(func(v int) bool {
			cs.sig[int(pt.label[v])*width+i/8] |= 1 << (i % 8)
			return true
		})
	}
	if k < 0 {
		return cs
	}
	depth, deg := min(k, m), min(k, n)

	// poly[d*(deg+1)+j], for the class set T of the d classes chosen so
	// far, is the number of failure sets of exactly j nodes that touch
	// exactly T; choose[c*(deg+1)+a] is C(|c|, a). Every entry counts
	// failure sets of F_k, so none overflows once |F_k| fits.
	var poly, choose []int64
	if weigh {
		combinat.NumFailureSets(n, k) // panics unless |F_k| fits
		poly = make([]int64, (depth+1)*(deg+1))
		poly[0] = 1
		choose = make([]int64, m*(deg+1))
		for c, size := range pt.size {
			for a := 1; a <= deg; a++ {
				choose[c*(deg+1)+a] = combinat.Binomial(int(size), a)
			}
		}
	}

	union := make([]byte, (depth+1)*width)
	chosen := bitset.New(m)
	var visit func(from, d int)
	visit = func(from, d int) {
		cur := union[d*width : (d+1)*width]
		g, ok := cs.index[string(cur)]
		if !ok {
			g = len(cs.groups)
			cs.index[string(cur)] = g
			cs.groups = append(cs.groups, signatureGroup{})
		}
		switch grp := &cs.groups[g]; {
		case weigh:
			for _, x := range poly[d*(deg+1) : (d+1)*(deg+1)] {
				grp.count += x
			}
		case !ok:
			grp.and, grp.or = chosen.Clone(), chosen.Clone()
		default:
			grp.and.IntersectWith(chosen)
			grp.or.UnionWith(chosen)
		}
		if d == depth {
			return
		}
		next := union[(d+1)*width : (d+2)*width]
		for c := from; c < m; c++ {
			for i := range next {
				next[i] = cur[i] | cs.sig[c*width+i]
			}
			if weigh {
				src, dst := poly[d*(deg+1):(d+1)*(deg+1)], poly[(d+1)*(deg+1):(d+2)*(deg+1)]
				for j := range dst {
					dst[j] = 0
					for a := 1; a <= j; a++ {
						dst[j] += src[j-a] * choose[c*(deg+1)+a]
					}
				}
			}
			chosen.Add(c)
			visit(c+1, d+1)
			chosen.Remove(c)
		}
	}
	visit(0, 0)
	return cs
}

// DistinguishabilityK returns |D_k(P)|: the total number of unordered
// failure-set pairs minus the pairs sharing a signature. It panics when
// |F_k| or C(|F_k|, 2) overflows int64.
func DistinguishabilityK(ps *PathSet, k int) int64 {
	if k < 0 {
		return 0
	}
	total := combinat.Pairs(combinat.NumFailureSets(ps.NumNodes(), k))
	for _, g := range classify(ps, k, true).groups {
		total -= combinat.Pairs(g.count)
	}
	return total
}

// IdentifiableNodesK returns S_k(P). A node v is k-identifiable iff every
// signature group is homogeneous at v: either all member failure sets
// contain v or none do (otherwise two failure sets differing in v collide,
// violating Definition 2). For k ≥ 1 that needs v alone in its class —
// {v} and {w} collide for a classmate w — and every group's class sets to
// contain v's class in all of them or in none.
func IdentifiableNodesK(ps *PathSet, k int) *bitset.Set {
	cs := classify(ps, k, false)
	ambiguous := bitset.New(cs.pt.NumGroups())
	for _, g := range cs.groups {
		g.or.DifferenceWith(g.and)
		ambiguous.UnionWith(g.or)
	}
	identifiable := bitset.New(ps.NumNodes())
	for v, c := range cs.pt.label {
		if !ambiguous.Contains(int(c)) && (k < 1 || cs.pt.size[c] == 1) {
			identifiable.Add(v)
		}
	}
	return identifiable
}

// IdentifiabilityK returns |S_k(P)|.
func IdentifiabilityK(ps *PathSet, k int) int {
	return IdentifiableNodesK(ps, k).Count()
}

// UncertaintyK returns |I_k(F; P)|: the number of failure sets in F_k,
// other than F itself, indistinguishable from F (Section II-B3). F must
// have at most k nodes.
func UncertaintyK(ps *PathSet, k int, f []int) (int64, error) {
	if len(f) > k {
		return 0, fmt.Errorf("monitor: |F| = %d exceeds k = %d", len(f), k)
	}
	for _, v := range f {
		if v < 0 || v >= ps.NumNodes() {
			return 0, fmt.Errorf("monitor: failure node %d out of range", v)
		}
	}
	cs := classify(ps, k, true)
	target := make([]byte, cs.width)
	for _, v := range f {
		c := int(cs.pt.label[v])
		for i, x := range cs.sig[c*cs.width : (c+1)*cs.width] {
			target[i] |= x
		}
	}
	g, ok := cs.index[string(target)]
	if !ok {
		return 0, fmt.Errorf("monitor: internal: failure set not enumerated")
	}
	return cs.groups[g].count - 1, nil
}

// AverageUncertaintyK returns the expected localization uncertainty
// (1/|F_k|) Σ_{F ∈ F_k} |I_k(F; P)|, computed directly from the group
// sizes. Lemma 3 states this equals (2/|F_k|)(C(|F_k|, 2) − |D_k(P)|);
// tests verify the identity.
func AverageUncertaintyK(ps *PathSet, k int) float64 {
	m := combinat.NumFailureSets(ps.NumNodes(), k)
	if m == 0 {
		return 0
	}
	var sum int64
	for _, g := range classify(ps, k, true).groups {
		// Each of the g.count members has g.count-1 indistinguishable peers.
		sum += g.count * (g.count - 1)
	}
	return float64(sum) / float64(m)
}

// IdentifiableFailureSetsK returns the number of failure sets F ∈ F_k
// whose signature is unique in F_k — the generalized k-identifiability of
// the remark after Theorem 19 ("the failures can be uniquely localized").
func IdentifiableFailureSetsK(ps *PathSet, k int) int64 {
	var unique int64
	for _, g := range classify(ps, k, true).groups {
		if g.count == 1 {
			unique++
		}
	}
	return unique
}
