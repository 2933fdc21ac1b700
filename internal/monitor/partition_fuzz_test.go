package monitor

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/bitset"
	"repro/internal/combinat"
)

// refPartition is the reference refinement FuzzPartitionRefine checks
// Partition against: classes kept as member slices, and every multi-node
// class re-split against a whole batch of paths at once by its members'
// membership patterns (uint64 keys up to 64 paths, string keys beyond).
// It is the signature split of Section V-D1 computed directly, without
// per-node labels or running counters.
type refPartition struct {
	numNodes int
	covered  *bitset.Set
	groups   [][]int
}

func newRefPartition(numNodes int) *refPartition {
	r := &refPartition{numNodes: numNodes, covered: bitset.New(numNodes)}
	if numNodes > 0 {
		all := make([]int, numNodes)
		for i := range all {
			all[i] = i
		}
		r.groups = [][]int{all}
	}
	return r
}

func (r *refPartition) refine(paths []*bitset.Set) {
	if len(paths) == 0 {
		return
	}
	var next [][]int
	for _, group := range r.groups {
		if len(group) == 1 {
			next = append(next, group)
			continue
		}
		next = append(next, refSplitGroup(group, paths)...)
	}
	r.groups = next
	for _, p := range paths {
		r.covered.UnionWith(p)
	}
}

// refSplitGroup partitions a node group by membership pattern across
// paths, keyed by uint64 bitmasks for ≤ 64 paths and strings beyond.
func refSplitGroup(group []int, paths []*bitset.Set) [][]int {
	if len(paths) <= 64 {
		buckets := map[uint64][]int{}
		var order []uint64
		for _, v := range group {
			var pat uint64
			for i, p := range paths {
				if p.Contains(v) {
					pat |= 1 << uint(i)
				}
			}
			if _, ok := buckets[pat]; !ok {
				order = append(order, pat)
			}
			buckets[pat] = append(buckets[pat], v)
		}
		out := make([][]int, 0, len(order))
		for _, pat := range order {
			out = append(out, buckets[pat])
		}
		return out
	}
	buckets := map[string][]int{}
	var order []string
	var b strings.Builder
	for _, v := range group {
		b.Reset()
		for _, p := range paths {
			if p.Contains(v) {
				b.WriteByte('1')
			} else {
				b.WriteByte('0')
			}
		}
		key := b.String()
		if _, ok := buckets[key]; !ok {
			order = append(order, key)
		}
		buckets[key] = append(buckets[key], v)
	}
	out := make([][]int, 0, len(order))
	for _, key := range order {
		out = append(out, buckets[key])
	}
	return out
}

func (r *refPartition) clone() *refPartition {
	c := &refPartition{numNodes: r.numNodes, covered: r.covered.Clone(), groups: make([][]int, len(r.groups))}
	for i, g := range r.groups {
		c.groups[i] = append([]int(nil), g...)
	}
	return c
}

// uncovered reports whether a group holds uncovered nodes; groups are
// homogeneous, so its first member decides.
func (r *refPartition) uncovered(g []int) bool { return !r.covered.Contains(g[0]) }

func (r *refPartition) s1() int {
	count := 0
	for _, g := range r.groups {
		if len(g) == 1 && !r.uncovered(g) {
			count++
		}
	}
	return count
}

func (r *refPartition) d1() int64 {
	total := combinat.Pairs(int64(r.numNodes) + 1)
	for _, g := range r.groups {
		size := int64(len(g))
		if r.uncovered(g) {
			size++ // v0 shares the empty signature
		}
		total -= combinat.Pairs(size)
	}
	return total
}

func (r *refPartition) degrees() []int {
	deg := make([]int, r.numNodes+1)
	for _, g := range r.groups {
		d := len(g) - 1
		if r.uncovered(g) {
			d++
			deg[r.numNodes] = len(g)
		}
		for _, v := range g {
			deg[v] = d
		}
	}
	return deg
}

func (r *refPartition) sortedGroups() [][]int {
	out := make([][]int, len(r.groups))
	for i, g := range r.groups {
		cp := append([]int(nil), g...)
		sort.Ints(cp)
		out[i] = cp
	}
	sort.Slice(out, func(i, j int) bool { return out[i][0] < out[j][0] })
	return out
}

// FuzzPartitionRefine refines a Partition and the reference with the
// same random batches of dense or sparse paths over 1–150 nodes, and
// after every batch requires every statistic to agree. Every third batch
// holds more than 64 paths, the reference's string-key branch. After each
// batch a Clone is refined further: the clone must match a reference
// refined the same way, and the original must not move. The original
// then tries the same paths: inside the trial it must match the refined
// clone and reference, and afterwards be exactly as it was, down to
// every node's class ID.
func FuzzPartitionRefine(f *testing.F) {
	f.Add(int64(1), uint8(12), uint8(5))
	f.Add(int64(7), uint8(0), uint8(2))
	f.Add(int64(42), uint8(149), uint8(3))
	f.Add(int64(-3), uint8(64), uint8(4))
	f.Add(int64(2016), uint8(1), uint8(0))
	f.Add(int64(36), uint8(50), uint8(5)) // a try that covers every uncovered node
	f.Fuzz(func(t *testing.T, seed int64, nodes, batches uint8) {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nodes)%150
		pt, ref := NewPartition(n), newRefPartition(n)
		for b := 0; b < 1+int(batches)%6; b++ {
			paths := randomBatch(rng, n, b%3 == 2)
			refineEither(rng, pt, paths)
			ref.refine(paths)
			comparePartition(t, "batch", pt, ref)

			extra := randomBatch(rng, n, false)
			c, rc := pt.Clone(), ref.clone()
			refineEither(rng, c, extra)
			rc.refine(extra)
			comparePartition(t, "clone", c, rc)
			comparePartition(t, "original after clone refine", pt, ref)

			before := pt.Clone()
			got := pt.Try(sparsePaths(extra), func(trial *Partition) float64 {
				comparePartition(t, "inside try", trial, rc)
				return float64(trial.D1())
			})
			if want := float64(c.D1()); got != want {
				t.Fatalf("Try read D1 %v, refined clone has %v", got, want)
			}
			comparePartition(t, "original after try", pt, ref)
			sameState(t, pt, before)
		}
	})
}

// randomBatch draws paths over [0, n): mostly short runs of distinct
// nodes like routed paths, some dense random subsets, the odd empty path
// and repeats of earlier paths. A large batch holds 65–96 paths.
func randomBatch(rng *rand.Rand, n int, large bool) []*bitset.Set {
	count := 1 + rng.Intn(8)
	if large {
		count = 65 + rng.Intn(32)
	}
	paths := make([]*bitset.Set, count)
	for i := range paths {
		p := bitset.New(n)
		switch r := rng.Intn(10); {
		case r == 0:
			// empty path
		case r == 1 && i > 0:
			p = paths[rng.Intn(i)].Clone()
		case r < 4:
			prob := rng.Float64()
			for v := 0; v < n; v++ {
				if rng.Float64() < prob {
					p.Add(v)
				}
			}
		default:
			for hops := 1 + rng.Intn(10); hops > 0; hops-- {
				p.Add(rng.Intn(n))
			}
		}
		paths[i] = p
	}
	return paths
}

// refineEither refines pt with the batch as dense or as sparse paths.
func refineEither(rng *rand.Rand, pt *Partition, paths []*bitset.Set) {
	if rng.Intn(2) == 0 {
		pt.Refine(paths)
		return
	}
	pt.RefineSparse(sparsePaths(paths))
}

func sparsePaths(paths []*bitset.Set) []*bitset.Sparse {
	sparse := make([]*bitset.Sparse, len(paths))
	for i, p := range paths {
		sparse[i] = bitset.SparseFromSet(p)
	}
	return sparse
}

// sameState fails unless pt holds exactly want's state: every node's
// class ID and covered bit, every class size, the uncovered class, S1
// and D1.
func sameState(t *testing.T, pt, want *Partition) {
	t.Helper()
	if !reflect.DeepEqual(pt.label, want.label) || !reflect.DeepEqual(pt.size, want.size) ||
		!pt.covered.Equal(want.covered) || pt.uncovered != want.uncovered ||
		pt.s1 != want.s1 || pt.d1 != want.d1 {
		t.Fatalf("state moved:\n got labels %v sizes %v uncovered %d s1 %d d1 %d covered %v\nwant labels %v sizes %v uncovered %d s1 %d d1 %d covered %v",
			pt.label, pt.size, pt.uncovered, pt.s1, pt.d1, pt.covered,
			want.label, want.size, want.uncovered, want.s1, want.d1, want.covered)
	}
}

func comparePartition(t *testing.T, stage string, pt *Partition, ref *refPartition) {
	t.Helper()
	if got, want := pt.Groups(), ref.sortedGroups(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Groups = %v, want %v", stage, got, want)
	}
	if got, want := pt.S1(), ref.s1(); got != want {
		t.Fatalf("%s: S1 = %d, want %d", stage, got, want)
	}
	if got, want := pt.D1(), ref.d1(); got != want {
		t.Fatalf("%s: D1 = %d, want %d", stage, got, want)
	}
	if got, want := pt.Coverage(), ref.covered.Count(); got != want {
		t.Fatalf("%s: Coverage = %d, want %d", stage, got, want)
	}
	if got, want := pt.NumGroups(), len(ref.groups); got != want {
		t.Fatalf("%s: NumGroups = %d, want %d", stage, got, want)
	}
	if got, want := pt.Degrees(), ref.degrees(); !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Degrees = %v, want %v", stage, got, want)
	}
}

func TestPartitionRefinePanicsBeforeChange(t *testing.T) {
	pt := NewPartition(4)
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic")
			}
		}()
		pt.RefineSparse([]*bitset.Sparse{bitset.SparseFromNodes(4, []int{0, 1}), bitset.SparseFromNodes(5, []int{2})})
	}()
	if pt.NumGroups() != 1 || pt.Coverage() != 0 || pt.D1() != 0 {
		t.Fatalf("a refinement that panicked changed the partition: %v", pt)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic from Try")
			}
		}()
		pt.Try([]*bitset.Sparse{bitset.SparseFromNodes(4, []int{0, 1}), bitset.SparseFromNodes(5, []int{2})},
			func(*Partition) float64 { t.Fatal("Try read a partition over a foreign path"); return 0 })
	}()
	if pt.NumGroups() != 1 || pt.Coverage() != 0 || pt.D1() != 0 {
		t.Fatalf("a Try that panicked changed the partition: %v", pt)
	}
}
