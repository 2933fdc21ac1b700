package bitset

import (
	"fmt"
	"slices"
	"strings"
)

// Sparse is an immutable set over the universe [0, n) stored as sorted
// member indices rather than a bit array. It is the memory-proportional
// representation of a measurement path: a path through a 100k-node
// network touches tens of nodes, and storing those as a dense Set costs
// 12.5 KB per path where Sparse costs 4 bytes per hop. The placement
// engines carry every candidate (service, host) pair's paths in memory
// at once, so at 10k–100k nodes the dense form is the difference
// between megabytes and gigabytes.
//
// Sparse is deliberately read-only after construction: paths never
// change once routed, and immutability lets every consumer share one
// instance without cloning. Mutating set algebra stays on the dense Set;
// UnionInto bridges into it.
type Sparse struct {
	n   int
	idx []int32
}

// SparseFromNodes returns a sparse set over [0, n) holding the given
// indices. The input is copied, sorted, and deduplicated; indices
// outside [0, n) panic, mirroring Set.Add — paths are built from
// validated node IDs, so an out-of-range index is a programming error.
func SparseFromNodes(n int, nodes []int) *Sparse {
	if n < 0 {
		n = 0
	}
	s := &Sparse{n: n, idx: make([]int32, 0, len(nodes))}
	for _, v := range nodes {
		if v < 0 || v >= n {
			panic(fmt.Sprintf("bitset: index %d out of range [0, %d)", v, n))
		}
		s.idx = append(s.idx, int32(v))
	}
	slices.Sort(s.idx)
	// Drop duplicates in place; the slice is already sorted.
	w := 0
	for i, v := range s.idx {
		if i > 0 && v == s.idx[w-1] {
			continue
		}
		s.idx[w] = v
		w++
	}
	s.idx = s.idx[:w]
	return s
}

// SparseFromSet converts a dense set to its sparse form.
func SparseFromSet(o *Set) *Sparse {
	s := &Sparse{n: o.Cap(), idx: make([]int32, 0, o.Count())}
	o.ForEach(func(i int) bool {
		s.idx = append(s.idx, int32(i))
		return true
	})
	return s
}

// Cap returns the universe size n.
func (s *Sparse) Cap() int { return s.n }

// Count returns the number of elements.
func (s *Sparse) Count() int { return len(s.idx) }

// Contains reports whether i is in the set. Out-of-range indices are
// reported as absent.
func (s *Sparse) Contains(i int) bool {
	if i < 0 || i >= s.n {
		return false
	}
	v := int32(i)
	lo, hi := 0, len(s.idx)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.idx[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(s.idx) && s.idx[lo] == v
}

// Members returns the elements in ascending order. The slice is the
// set's own storage, shared without a copy: treat it as read-only.
func (s *Sparse) Members() []int32 { return s.idx }

// ForEach calls fn for each element in ascending order. It stops early
// if fn returns false.
func (s *Sparse) ForEach(fn func(i int) bool) {
	for _, v := range s.idx {
		if !fn(int(v)) {
			return
		}
	}
}

// Indices returns the elements in ascending order (a fresh slice).
func (s *Sparse) Indices() []int {
	out := make([]int, len(s.idx))
	for i, v := range s.idx {
		out[i] = int(v)
	}
	return out
}

// Dense materializes the set as a dense Set over the same universe.
func (s *Sparse) Dense() *Set {
	d := New(s.n)
	for _, v := range s.idx {
		d.Add(int(v))
	}
	return d
}

// UnionInto adds every element of s to the dense set dst. The universes
// must match; mixing them panics, as with Set.UnionWith.
func (s *Sparse) UnionInto(dst *Set) {
	if s.n != dst.Cap() {
		panic(fmt.Sprintf("bitset: universe mismatch %d != %d", s.n, dst.Cap()))
	}
	for _, v := range s.idx {
		dst.words[v/wordBits] |= 1 << (uint(v) % wordBits)
	}
}

// Equal reports whether s and o contain the same elements. Sets over
// different universes are never equal.
func (s *Sparse) Equal(o *Sparse) bool {
	if s.n != o.n || len(s.idx) != len(o.idx) {
		return false
	}
	for i, v := range s.idx {
		if v != o.idx[i] {
			return false
		}
	}
	return true
}

// Key returns a string usable as a map key identifying the set
// contents. Two sparse sets over the same universe have equal keys iff
// they are Equal. The encoding (4 little-endian bytes per member) is
// proportional to the member count, unlike the dense Set.Key, and the
// two keyspaces are not interchangeable.
func (s *Sparse) Key() string {
	var b strings.Builder
	b.Grow(len(s.idx) * 4)
	for _, v := range s.idx {
		b.WriteByte(byte(v))
		b.WriteByte(byte(v >> 8))
		b.WriteByte(byte(v >> 16))
		b.WriteByte(byte(v >> 24))
	}
	return b.String()
}

// Hash returns a 64-bit FNV-1a hash of the member indices. Equal sets
// hash equally; use Equal to confirm.
func (s *Sparse) Hash() uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, v := range s.idx {
		h ^= uint64(uint32(v))
		h *= prime
	}
	return h
}

// String renders the set as "{a, b, c}".
func (s *Sparse) String() string {
	var b strings.Builder
	b.WriteByte('{')
	for i, v := range s.idx {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%d", v)
	}
	b.WriteByte('}')
	return b.String()
}
