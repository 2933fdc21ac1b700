package placement

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/monitor"
)

// Objective selects the set function f(P) maximized by the placement
// algorithms. The three paper objectives are Coverage (MCSP),
// Identifiability (MISP), and Distinguishability (MDSP), each optionally
// restricted to a set of nodes of interest (Section VII-B). Objectives are
// sealed to this package because evaluation is tightly coupled to the
// incremental refinement structures.
type Objective interface {
	// Name returns a short identifier ("coverage", "identifiability-1", …).
	Name() string
	// K returns the failure budget the objective is defined for (0 for
	// coverage, which is budget-free).
	K() int
	// newEvaluator returns a fresh evaluator over numNodes nodes.
	newEvaluator(numNodes int) evaluator
	// submodular reports whether the objective is monotone submodular
	// (Lemmas 13 and 17), which algorithms like BranchAndBound rely on
	// for admissible pruning bounds.
	submodular() bool
}

// evaluator incrementally tracks the objective value of a growing path
// set. Add is destructive; use Clone to branch for hypothetical
// evaluations (line 4 of Algorithm 2). A clone is fully independent of
// its origin, so an algorithm may adopt a trial evaluator as its new
// running state — the eager and lazy engines keep the winning trial of
// each round instead of re-adding the chosen paths. Paths arrive in the
// sparse representation the instance stores; evaluators whose internal
// structure is dense convert at the boundary.
type evaluator interface {
	Add(paths []*bitset.Sparse)
	Clone() evaluator
	Value() float64
}

// IsSubmodular reports whether obj is monotone submodular: true for
// coverage and distinguishability at every k (Lemmas 13 and 17), false
// for identifiability (Propositions 15 and 16). Submodular objectives
// admit the lazy-greedy engine and branch-and-bound pruning; callers such
// as the placemon facade use this to pick a default algorithm.
func IsSubmodular(obj Objective) bool { return obj != nil && obj.submodular() }

// ---- Coverage (MCSP) -------------------------------------------------

type coverageObjective struct {
	interest *bitset.Set // nil = all nodes
}

// NewCoverage returns the |C(P)| objective of Section II-B1.
func NewCoverage() Objective { return coverageObjective{} }

// NewCoverageOfInterest returns |C(P) ∩ N_I| (Section VII-B). The interest
// list indexes nodes of the instance graph.
func NewCoverageOfInterest(numNodes int, interest []int) Objective {
	return coverageObjective{interest: bitset.FromIndices(numNodes, interest...)}
}

func (o coverageObjective) Name() string {
	if o.interest != nil {
		return "coverage-interest"
	}
	return "coverage"
}

func (o coverageObjective) K() int { return 0 }

func (o coverageObjective) submodular() bool { return true }

func (o coverageObjective) newEvaluator(numNodes int) evaluator {
	return &coverageEval{covered: bitset.New(numNodes), interest: o.interest}
}

type coverageEval struct {
	covered  *bitset.Set
	interest *bitset.Set
}

func (e *coverageEval) Add(paths []*bitset.Sparse) {
	for _, p := range paths {
		p.UnionInto(e.covered)
	}
}

func (e *coverageEval) Clone() evaluator {
	return &coverageEval{covered: e.covered.Clone(), interest: e.interest}
}

func (e *coverageEval) Value() float64 {
	if e.interest != nil {
		return float64(e.covered.IntersectionCount(e.interest))
	}
	return float64(e.covered.Count())
}

// ---- Identifiability (MISP) and Distinguishability (MDSP), k = 1 ------

type partitionObjective struct {
	name         string
	value        func(pt *monitor.Partition, interest *bitset.Set) float64
	interest     *bitset.Set
	isSubmodular bool
}

func (o partitionObjective) Name() string { return o.name }

func (o partitionObjective) K() int { return 1 }

func (o partitionObjective) submodular() bool { return o.isSubmodular }

func (o partitionObjective) newEvaluator(numNodes int) evaluator {
	return &partitionEval{
		pt:       monitor.NewPartition(numNodes),
		value:    o.value,
		interest: o.interest,
	}
}

type partitionEval struct {
	pt       *monitor.Partition
	value    func(pt *monitor.Partition, interest *bitset.Set) float64
	interest *bitset.Set
}

func (e *partitionEval) Add(paths []*bitset.Sparse) { e.pt.RefineSparse(paths) }

func (e *partitionEval) Clone() evaluator {
	return &partitionEval{pt: e.pt.Clone(), value: e.value, interest: e.interest}
}

func (e *partitionEval) Value() float64 { return e.value(e.pt, e.interest) }

// NewIdentifiability returns the |S_k(P)| objective. k = 1 uses the
// incremental equivalence-class structure (Section V-D1); k > 1 falls back
// to exact enumeration and is exponential in k — suitable only for small
// networks.
func NewIdentifiability(k int) (Objective, error) {
	switch {
	case k < 1:
		return nil, fmt.Errorf("placement: identifiability requires k ≥ 1, got %d", k)
	case k == 1:
		return partitionObjective{
			name:         "identifiability-1",
			isSubmodular: false,
			value: func(pt *monitor.Partition, interest *bitset.Set) float64 {
				return float64(pt.S1())
			},
		}, nil
	default:
		return enumerationObjective{name: fmt.Sprintf("identifiability-%d", k), k: k, kind: kindIdentifiability}, nil
	}
}

// NewDistinguishability returns the |D_k(P)| objective, the paper's
// best-overall placement driver. k = 1 uses incremental refinement; k > 1
// enumerates F_k exactly.
func NewDistinguishability(k int) (Objective, error) {
	switch {
	case k < 1:
		return nil, fmt.Errorf("placement: distinguishability requires k ≥ 1, got %d", k)
	case k == 1:
		return partitionObjective{
			name:         "distinguishability-1",
			isSubmodular: true,
			value: func(pt *monitor.Partition, interest *bitset.Set) float64 {
				return float64(pt.D1())
			},
		}, nil
	default:
		return enumerationObjective{name: fmt.Sprintf("distinguishability-%d", k), k: k, kind: kindDistinguishability}, nil
	}
}

// NewIdentifiabilityOfInterest returns |S_1(P) ∩ N_I| (Section VII-B).
func NewIdentifiabilityOfInterest(numNodes int, interest []int) Objective {
	set := bitset.FromIndices(numNodes, interest...)
	return partitionObjective{
		name:         "identifiability-1-interest",
		interest:     set,
		isSubmodular: false,
		value: func(pt *monitor.Partition, interest *bitset.Set) float64 {
			count := 0
			for _, g := range pt.Groups() {
				// 1-identifiable = alone in its class and covered (an
				// uncovered singleton still collides with v0).
				if len(g) == 1 && interest.Contains(g[0]) && pt.Covered(g[0]) {
					count++
				}
			}
			return float64(count)
		},
	}
}

// NewDistinguishabilityOfInterest returns the Section VII-B interest-aware
// distinguishability at k = 1: the number of distinguishable hypothesis
// pairs {F, F'} with F a single-node failure of an interest node.
func NewDistinguishabilityOfInterest(numNodes int, interest []int) Objective {
	set := bitset.FromIndices(numNodes, interest...)
	return partitionObjective{
		name:         "distinguishability-1-interest",
		interest:     set,
		isSubmodular: true,
		value: func(pt *monitor.Partition, interest *bitset.Set) float64 {
			return float64(interestD1(pt, interest))
		},
	}
}

// interestD1 counts unordered hypothesis pairs with at least one member in
// the interest set that are distinguishable. Hypotheses are the |N|+1
// single-failure cases (v0 excluded from interest).
func interestD1(pt *monitor.Partition, interest *bitset.Set) int64 {
	n := int64(pt.NumNodes())
	i := int64(interest.Count())
	// Total pairs with ≥1 interesting member among n+1 hypotheses.
	totalPairs := pairs(n+1) - pairs(n+1-i)
	// Indistinguishable such pairs, class by class. v0 joins the class of
	// uncovered nodes (it shares their empty signature) but is itself never
	// a node of interest.
	var indist int64
	for _, g := range pt.Groups() {
		size := int64(len(g))
		var ing int64
		for _, v := range g {
			if interest.Contains(v) {
				ing++
			}
		}
		if !pt.Covered(g[0]) {
			size++
		}
		indist += pairs(size) - pairs(size-ing)
	}
	return totalPairs - indist
}

func pairs(n int64) int64 {
	if n < 2 {
		return 0
	}
	return n * (n - 1) / 2
}

// ---- General k ≥ 2 by enumeration --------------------------------------

type enumerationKind int

const (
	kindIdentifiability enumerationKind = iota + 1
	kindDistinguishability
)

type enumerationObjective struct {
	name string
	k    int
	kind enumerationKind
}

func (o enumerationObjective) Name() string { return o.name }

func (o enumerationObjective) K() int { return o.k }

// submodular: |D_k| is monotone submodular for every k (Lemma 17);
// |S_k| is not (Proposition 15).
func (o enumerationObjective) submodular() bool { return o.kind == kindDistinguishability }

func (o enumerationObjective) newEvaluator(numNodes int) evaluator {
	return &enumerationEval{ps: monitor.NewPathSet(numNodes), k: o.k, kind: o.kind}
}

type enumerationEval struct {
	ps   *monitor.PathSet
	k    int
	kind enumerationKind
}

func (e *enumerationEval) Add(paths []*bitset.Sparse) {
	// Enumeration only ever runs at k ≥ 2 on small networks (it is
	// exponential in k), so materializing dense sets here is cheap and
	// keeps monitor.PathSet's dense signature machinery untouched.
	dense := make([]*bitset.Set, len(paths))
	for i, p := range paths {
		dense[i] = p.Dense()
	}
	if err := e.ps.AddAll(dense); err != nil {
		// Paths come from the instance's precomputed elements, which are
		// validated at construction; failure here is a programming error.
		panic(fmt.Sprintf("placement: %v", err))
	}
}

func (e *enumerationEval) Clone() evaluator {
	return &enumerationEval{ps: e.ps.Clone(), k: e.k, kind: e.kind}
}

func (e *enumerationEval) Value() float64 {
	switch e.kind {
	case kindIdentifiability:
		return float64(monitor.IdentifiabilityK(e.ps, e.k))
	default:
		return float64(monitor.DistinguishabilityK(e.ps, e.k))
	}
}
