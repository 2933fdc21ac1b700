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
// set. Add is destructive. Try scores a hypothetical addition (line 4 of
// Algorithm 2): it returns what Value would read after Add(paths), bit
// for bit, and leaves the evaluator exactly as it was. Try mutates the
// evaluator while it runs, so concurrent workers each need their own;
// Clone only reads, and branch-and-bound uses it to branch state. Paths
// arrive in the sparse representation the instance stores; evaluators
// whose internal structure is dense convert at the boundary.
type evaluator interface {
	Add(paths []*bitset.Sparse)
	Try(paths []*bitset.Sparse) float64
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

// coverageEval keeps the covered nodes and their count (of interest,
// when set). Try marks the candidate's newly covered nodes, counts them
// and unmarks them: O(Σ|p|), no copy of the covered set.
type coverageEval struct {
	covered  *bitset.Set
	interest *bitset.Set
	count    int
	marked   []int32 // Try's scratch
}

func (e *coverageEval) Add(paths []*bitset.Sparse) {
	e.count += e.mark(paths)
	e.marked = e.marked[:0]
}

func (e *coverageEval) Try(paths []*bitset.Sparse) float64 {
	gain := e.mark(paths)
	for _, v := range e.marked {
		e.covered.Remove(int(v))
	}
	e.marked = e.marked[:0]
	return float64(e.count + gain)
}

// mark covers the paths' nodes, records the newly covered ones in
// marked, and returns how many of them count toward the value. A path
// over another universe panics before anything is marked.
func (e *coverageEval) mark(paths []*bitset.Sparse) int {
	for _, p := range paths {
		if p.Cap() != e.covered.Cap() {
			panic(fmt.Sprintf("placement: path universe %d != %d", p.Cap(), e.covered.Cap()))
		}
	}
	gain := 0
	for _, p := range paths {
		for _, v := range p.Members() {
			if e.covered.Contains(int(v)) {
				continue
			}
			e.covered.Add(int(v))
			e.marked = append(e.marked, v)
			if e.interest == nil || e.interest.Contains(int(v)) {
				gain++
			}
		}
	}
	return gain
}

func (e *coverageEval) Clone() evaluator {
	return &coverageEval{covered: e.covered.Clone(), interest: e.interest, count: e.count}
}

func (e *coverageEval) Value() float64 { return float64(e.count) }

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

func (e *partitionEval) Try(paths []*bitset.Sparse) float64 {
	return e.pt.Try(paths, func(pt *monitor.Partition) float64 { return e.value(pt, e.interest) })
}

func (e *partitionEval) Clone() evaluator {
	return &partitionEval{pt: e.pt.Clone(), value: e.value, interest: e.interest}
}

func (e *partitionEval) Value() float64 { return e.value(e.pt, e.interest) }

// NewIdentifiability returns the |S_k(P)| objective. k = 1 uses the
// incremental equivalence-class structure (Section V-D1); k > 1 counts
// exactly over the C(m, ≤k) class sets of the m failure classes
// (monitor.IdentifiableNodesK).
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
// counts F_k exactly over failure classes (monitor.DistinguishabilityK).
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

// ---- General k ≥ 2 over failure classes --------------------------------

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
	// monitor.PathSet keeps dense paths, so each added path is
	// materialized over every node.
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

// Try clones and adds: the class count in Value, which re-derives the
// failure classes from the path set, dwarfs the copy, so k ≥ 2 keeps no
// undo log.
func (e *enumerationEval) Try(paths []*bitset.Sparse) float64 {
	trial := e.Clone()
	trial.Add(paths)
	return trial.Value()
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
