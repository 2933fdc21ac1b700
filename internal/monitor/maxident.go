package monitor

import "math"

// This file implements the *maximum identifiability* measure of the
// paper's reference [5] (Ma et al.), which the paper's Section II-B
// generalizes: the largest failure budget k such that a node (or every
// node) remains k-identifiable. It rounds out the measure family — where
// |S_k(P)| fixes k and counts nodes, maximum identifiability fixes the
// node set and maximizes k — and provides the per-node localization
// guarantee an operator can quote ("this placement localizes any ≤k
// failures touching v").

// MaxIdentifiability returns, for node v, the largest k ≥ 0 such that v
// is k-identifiable wrt the path set, computed exactly by IdentifiableNodesK
// at k = 1, 2, … (each costs C(m, ≤k) class sets for m failure classes).
// Every node is 0-identifiable.
// If v is k-identifiable for every k up to the node count, the node count
// is returned (the maximum meaningful budget).
func MaxIdentifiability(ps *PathSet, v int) int {
	n := ps.NumNodes()
	if v < 0 || v >= n {
		return 0
	}
	// k-identifiability is monotone decreasing in k, so scan upward until
	// the first failure.
	for k := 1; k <= n; k++ {
		if !IdentifiableNodesK(ps, k).Contains(v) {
			return k - 1
		}
	}
	return n
}

// NetworkMaxIdentifiability returns the largest k such that *every*
// covered node is k-identifiable — [5]'s network-wide measure restricted
// to observable nodes (uncovered nodes are never 1-identifiable, so
// including them would pin the measure at 0 whenever coverage is
// partial). It returns 0 when some covered node is not even
// 1-identifiable, and 0 for path sets covering nothing.
func NetworkMaxIdentifiability(ps *PathSet) int {
	covered := ps.CoveredNodes()
	if covered.Empty() {
		return 0
	}
	n := ps.NumNodes()
	for k := 1; k <= n; k++ {
		identifiable := IdentifiableNodesK(ps, k)
		if !covered.IsSubsetOf(identifiable) {
			return k - 1
		}
	}
	return n
}

// MaxIdentifiabilityBounds sandwiches MaxIdentifiability(v) using the
// greedy set cover (Theorem 4): GSC is an upper bound on nothing directly,
// but MSC ∈ [GSC/(ln|P_v|+1), GSC] and v is k-identifiable for all
// k ≤ MSC−1 and for no k > MSC. The returned bounds satisfy
// Lower ≤ MaxIdentifiability(v) ≤ Upper and cost one greedy cover instead
// of a class count per budget.
func MaxIdentifiabilityBounds(ps *PathSet, v int) (lower, upper int) {
	sigs := ps.Signatures()
	if v < 0 || v >= len(sigs) || sigs[v].Empty() {
		return 0, 0
	}
	gsc := greedySetCover(sigs, v)
	if gsc == Uncoverable {
		n := ps.NumNodes()
		return n, n
	}
	// MSC ≥ ceil(GSC / (ln|P_v|+1)); v is (MSC−1)-identifiable
	// (sufficiency) and not MSC-identifiable... only "not (MSC)-identifiable
	// is not guaranteed"; the necessary condition gives: v k-identifiable ⇒
	// MSC ≥ k, so MaxIdent ≤ MSC ≤ GSC.
	ratio := math.Log(float64(sigs[v].Count())) + 1
	mscLower := int(math.Ceil(float64(gsc) / ratio))
	if mscLower < 1 {
		mscLower = 1
	}
	lower = mscLower - 1
	upper = gsc
	return lower, upper
}
