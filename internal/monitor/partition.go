package monitor

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/bitset"
	"repro/internal/combinat"
)

// Partition is the efficient incremental counterpart of the equivalence
// graph Q (Section V-D1). Instead of an adjacency matrix it keeps the
// equivalence classes of single-node failure hypotheses: two nodes are in
// the same class iff they are traversed by exactly the same set of paths
// added so far. Adding measurement paths can only split classes ("once
// distinguishable, always distinguishable"), so refinement is monotone.
//
// Each node carries the label of its class, and a path refines the
// partition on its own: every class it touches either lies wholly on the
// path and stays, or splits, its on-path members moving to a new class.
// Sequential binary splits give exactly the classes of the joint
// signature split, because two nodes end up together iff they agree on
// every path. A refinement costs O(Σ|p|) over the new paths, never
// O(|N|), and |S_1| and |D_1| are updated at every split, so reading them
// is O(1).
//
// The virtual no-failure node v0 is implicit: it always belongs with the
// uncovered nodes (empty signature). The uncovered nodes, when any exist,
// form exactly one class because an empty signature is equal only to
// another empty signature.
type Partition struct {
	covered   *bitset.Set
	label     []int32 // label[v] is the class of node v
	size      []int32 // size[c] is the member count of class c
	uncovered int32   // the class of the uncovered nodes, -1 once none is left
	s1        int
	d1        int64

	// Refinement scratch, owned by this partition and never copied by
	// Clone: count[c] is how many of the current path's nodes lie in
	// class c (then the class they move to), touched the classes the path
	// reaches.
	count   []int32
	touched []int32
	// parent is Try's undo log, empty outside a Try: parent[i] is the
	// class that class base+i split from, base being the class count
	// when the Try began.
	parent []int32
	trying bool
}

// NewPartition returns the partition of an empty path set: every node is
// uncovered and mutually indistinguishable.
func NewPartition(numNodes int) *Partition {
	pt := &Partition{
		covered:   bitset.New(numNodes),
		label:     make([]int32, numNodes),
		uncovered: -1,
	}
	if numNodes > 0 {
		pt.size = []int32{int32(numNodes)}
		pt.uncovered = 0
	}
	return pt
}

// NewPartitionFromPaths builds the partition for an existing path set.
func NewPartitionFromPaths(ps *PathSet) *Partition {
	pt := NewPartition(ps.NumNodes())
	paths := make([]*bitset.Set, ps.Len())
	for i := range paths {
		paths[i] = ps.Path(i)
	}
	pt.Refine(paths)
	return pt
}

// NumNodes returns |N|.
func (pt *Partition) NumNodes() int { return len(pt.label) }

// NumGroups returns the current number of equivalence classes over real
// nodes (v0 not counted as a separate group).
func (pt *Partition) NumGroups() int { return len(pt.size) }

// Refine splits the partition according to the node membership of the new
// paths and marks their nodes covered. Paths must use the node universe;
// a path over another one panics before the partition changes.
func (pt *Partition) Refine(paths []*bitset.Set) {
	checkUniverse(len(pt.label), paths)
	var members []int32
	for _, p := range paths {
		members = members[:0]
		p.ForEach(func(v int) bool {
			members = append(members, int32(v))
			return true
		})
		pt.refinePath(members)
	}
}

// RefineSparse is Refine over sparse paths — the representation the
// placement engines store at 10k+ nodes. The resulting partition is
// identical to Refine over the equivalent dense paths.
func (pt *Partition) RefineSparse(paths []*bitset.Sparse) {
	checkUniverse(len(pt.label), paths)
	for _, p := range paths {
		pt.refinePath(p.Members())
	}
}

// Try refines the partition by the sparse paths, reads value from the
// refined partition, then rolls the refinement back and returns what it
// read. Afterwards the partition is exactly as it was: labels, class
// sizes and count, covered nodes, the uncovered class, S1 and D1. Both
// halves cost O(Σ|p|), and a partition that has tried before allocates
// nothing. A path over another universe panics before the partition
// changes. Try mutates pt while it runs, so it must not overlap any
// other use of pt, Clone included; value must only read.
func (pt *Partition) Try(paths []*bitset.Sparse, value func(*Partition) float64) float64 {
	checkUniverse(len(pt.label), paths)
	base := int32(len(pt.size))
	uncovered, s1, d1 := pt.uncovered, pt.s1, pt.d1
	pt.trying = true
	for _, p := range paths {
		pt.refinePath(p.Members())
	}
	pt.trying = false
	v := value(pt)
	// Every class created above split from an older one, so following
	// parents down below base restores a node's label; the node was
	// newly covered iff that label is the uncovered class.
	for _, p := range paths {
		for _, u := range p.Members() {
			c := pt.label[u]
			for c >= base {
				c = pt.parent[c-base]
			}
			pt.label[u] = c
			if c == uncovered {
				pt.covered.Remove(int(u))
			}
		}
	}
	for i := len(pt.parent) - 1; i >= 0; i-- {
		pt.size[pt.parent[i]] += pt.size[base+int32(i)]
	}
	pt.size = pt.size[:base]
	pt.parent = pt.parent[:0]
	pt.uncovered, pt.s1, pt.d1 = uncovered, s1, d1
	return v
}

// checkUniverse panics unless every path is a set over [0, numNodes).
func checkUniverse[P interface{ Cap() int }](numNodes int, paths []P) {
	for _, p := range paths {
		if p.Cap() != numNodes {
			panic(fmt.Sprintf("monitor: path universe %d != %d", p.Cap(), numNodes))
		}
	}
}

// refinePath splits every class the path touches and marks its nodes
// covered. members are the path's nodes, each listed once.
func (pt *Partition) refinePath(members []int32) {
	if short := len(pt.size) - len(pt.count); short > 0 {
		pt.count = append(pt.count, make([]int32, short)...)
	}
	for _, v := range members {
		c := pt.label[v]
		if pt.count[c] == 0 {
			pt.touched = append(pt.touched, c)
		}
		pt.count[c]++
		pt.covered.Add(int(v))
	}
	for _, c := range pt.touched {
		s, k := int64(pt.size[c]), int64(pt.count[c])
		var u int64 // v0 shares the uncovered class's empty signature
		if c == pt.uncovered {
			u = 1
		}
		pt.d1 += combinat.Pairs(s+u) - combinat.Pairs(s-k+u) - combinat.Pairs(k)
		if k == s {
			// Wholly on the path: the class stays, and if it was the
			// uncovered one, v0 leaves it.
			if u == 1 {
				pt.uncovered = -1
				if s == 1 {
					pt.s1++
				}
			}
			pt.count[c] = c
			continue
		}
		// Split: the on-path members move to a new, covered class, and
		// each side left as a covered singleton joins S_1.
		if k == 1 {
			pt.s1++
		}
		if s-k == 1 && u == 0 {
			pt.s1++
		}
		pt.size[c] -= int32(k)
		pt.count[c] = int32(len(pt.size))
		pt.size = append(pt.size, int32(k))
		if pt.trying {
			pt.parent = append(pt.parent, c)
		}
	}
	for _, v := range members {
		pt.label[v] = pt.count[pt.label[v]]
	}
	for _, c := range pt.touched {
		pt.count[c] = 0
	}
	pt.touched = pt.touched[:0]
}

// Clone returns an independent copy. It only reads pt, so several
// goroutines may clone one partition at once.
func (pt *Partition) Clone() *Partition {
	return &Partition{
		covered:   pt.covered.Clone(),
		label:     append([]int32(nil), pt.label...),
		size:      append([]int32(nil), pt.size...),
		uncovered: pt.uncovered,
		s1:        pt.s1,
		d1:        pt.d1,
	}
}

// Coverage returns |C(P)| for the paths refined so far.
func (pt *Partition) Coverage() int { return pt.covered.Count() }

// Covered reports whether node v lies on at least one refined path.
func (pt *Partition) Covered(v int) bool { return pt.covered.Contains(v) }

// S1 returns |S_1(P)|: covered nodes alone in their class.
func (pt *Partition) S1() int { return pt.s1 }

// D1 returns |D_1(P)|: total hypothesis pairs C(|N|+1, 2) minus the
// indistinguishable pairs inside each class, counting v0 with the
// uncovered class.
func (pt *Partition) D1() int64 { return pt.d1 }

// Degrees returns the degree of uncertainty for every node of Q, with
// index numNodes holding v0's degree (Fig. 8's statistic). A node's degree
// is the number of other hypotheses with an identical signature.
func (pt *Partition) Degrees() []int {
	n := len(pt.label)
	deg := make([]int, n+1)
	for v, c := range pt.label {
		deg[v] = int(pt.size[c]) - 1
		if c == pt.uncovered {
			deg[v]++ // also adjacent to v0
		}
	}
	if pt.uncovered >= 0 {
		deg[n] = int(pt.size[pt.uncovered])
	}
	return deg
}

// Groups returns the equivalence classes, each sorted ascending, ordered
// by smallest member. The uncovered class, if any, does not include v0;
// use Degrees for v0-aware statistics.
func (pt *Partition) Groups() [][]int {
	out := make([][]int, 0, len(pt.size))
	at := make([]int32, len(pt.size)) // class → 1 + its index in out
	for v, c := range pt.label {
		if at[c] == 0 {
			out = append(out, make([]int, 0, pt.size[c]))
			at[c] = int32(len(out))
		}
		out[at[c]-1] = append(out[at[c]-1], v)
	}
	return out
}

// String summarizes the partition for debugging.
func (pt *Partition) String() string {
	var b strings.Builder
	b.WriteString("partition{")
	for i, g := range pt.Groups() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('[')
		for j, v := range g {
			if j > 0 {
				b.WriteByte(',')
			}
			b.WriteString(strconv.Itoa(v))
		}
		b.WriteByte(']')
	}
	b.WriteByte('}')
	return b.String()
}
