// Package combinat provides the combinatorial enumeration primitives used
// by the monitoring metrics: binomial coefficients, k-subset enumeration,
// and counts of failure-set collections F_k = {F ⊆ N : |F| ≤ k}.
package combinat

import (
	"fmt"
	"math"
)

// Binomial returns C(n, k). It returns 0 for k < 0 or k > n, and panics on
// overflow of int64 arithmetic (which cannot occur for the network sizes
// this repository handles, but guards against misuse).
func Binomial(n, k int) int64 {
	c, ok := binomial(n, k)
	if !ok {
		panic(fmt.Sprintf("combinat: C(%d,%d) overflows int64", n, k))
	}
	return c
}

func binomial(n, k int) (int64, bool) {
	if k < 0 || k > n {
		return 0, true
	}
	if k > n-k {
		k = n - k
	}
	var res int64 = 1
	for i := 0; i < k; i++ {
		num := int64(n - i)
		if res > math.MaxInt64/num {
			return 0, false
		}
		res = res * num / int64(i+1)
	}
	return res, true
}

// Pairs returns C(n, 2) as an int64, the number of unordered pairs from n
// items, and 0 for n < 2. It panics when the count overflows int64, as
// Binomial does: C(n, 2) fits exactly when n ≤ 2^32.
func Pairs(n int64) int64 {
	if uint64(n) > maxPairs {
		return pairsOutOfRange(n)
	}
	// n(n−1) < 2^64 for 0 ≤ n ≤ 2^32, so the unsigned product is exact.
	return int64(uint64(n) * uint64(n-1) / 2)
}

// maxPairs is the largest n whose C(n, 2) fits in int64.
const maxPairs = 1 << 32

// pairsOutOfRange is Pairs for a negative n or one past maxPairs, kept
// out of Pairs so that Pairs, on the partition refinement's hot path,
// stays small enough to inline.
//
//go:noinline
func pairsOutOfRange(n int64) int64 {
	if n < 0 {
		return 0
	}
	panic(fmt.Sprintf("combinat: C(%d,2) overflows int64", n))
}

// NumFailureSets returns |F_k| = Σ_{i=0..k} C(n, i): the number of failure
// sets with at most k failed nodes out of n, including the empty set. It
// panics when the count overflows int64, as Binomial does.
func NumFailureSets(n, k int) int64 {
	total, ok := numFailureSets(n, k)
	if !ok {
		panic(fmt.Sprintf("combinat: |F_%d| over %d nodes overflows int64", k, n))
	}
	return total
}

func numFailureSets(n, k int) (int64, bool) {
	var total int64
	for i := 0; i <= k && i <= n; i++ {
		c, ok := binomial(n, i)
		if !ok || total > math.MaxInt64-c {
			return 0, false
		}
		total += c
	}
	return total, true
}

// CheckFailureSetPairs returns an error unless |F_k| over n nodes and the
// number of unordered pairs of those failure sets, C(|F_k|, 2), both fit
// in int64: the range every general-k count lies in.
func CheckFailureSetPairs(n, k int) error {
	if total, ok := numFailureSets(n, k); !ok {
		return fmt.Errorf("combinat: |F_%d| over %d nodes overflows int64", k, n)
	} else if total > maxPairs {
		return fmt.Errorf("combinat: the pairs of the %d failure sets of F_%d over %d nodes overflow int64", total, k, n)
	}
	return nil
}

// Combinations calls fn once for every k-subset of [0, n), with the subset
// passed in ascending order. The slice is reused between calls; fn must
// copy it if it retains it. Enumeration stops early if fn returns false.
// Combinations with k == 0 calls fn once with an empty slice.
func Combinations(n, k int, fn func(subset []int) bool) {
	if k < 0 || k > n {
		return
	}
	idx := make([]int, k)
	for i := range idx {
		idx[i] = i
	}
	for {
		if !fn(idx) {
			return
		}
		// Advance to the next combination in lexicographic order.
		i := k - 1
		for i >= 0 && idx[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		idx[i]++
		for j := i + 1; j < k; j++ {
			idx[j] = idx[j-1] + 1
		}
	}
}

// SubsetsUpTo calls fn once for every subset of [0, n) with at most k
// elements, in order of increasing size (the empty set first). The slice is
// reused between calls. Enumeration stops early if fn returns false.
func SubsetsUpTo(n, k int, fn func(subset []int) bool) {
	stopped := false
	for size := 0; size <= k && size <= n && !stopped; size++ {
		Combinations(n, size, func(subset []int) bool {
			if !fn(subset) {
				stopped = true
				return false
			}
			return true
		})
	}
}

// CombinationCount returns the number of subsets SubsetsUpTo(n, k, ...)
// enumerates; exposed to let callers preallocate.
func CombinationCount(n, k int) int64 {
	return NumFailureSets(n, k)
}
