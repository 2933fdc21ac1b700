package combinat

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBinomialBasics(t *testing.T) {
	cases := []struct {
		n, k int
		want int64
	}{
		{0, 0, 1},
		{1, 0, 1},
		{1, 1, 1},
		{5, 2, 10},
		{10, 3, 120},
		{52, 5, 2598960},
		{10, -1, 0},
		{3, 4, 0},
		{100, 2, 4950},
	}
	for _, c := range cases {
		if got := Binomial(c.n, c.k); got != c.want {
			t.Errorf("Binomial(%d,%d) = %d, want %d", c.n, c.k, got, c.want)
		}
	}
}

func TestBinomialSymmetry(t *testing.T) {
	f := func(n, k uint8) bool {
		nn := int(n % 40)
		kk := int(k % 40)
		return Binomial(nn, kk) == Binomial(nn, nn-kk) || kk > nn
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBinomialPascal(t *testing.T) {
	// C(n, k) = C(n-1, k-1) + C(n-1, k)
	for n := 1; n <= 30; n++ {
		for k := 1; k < n; k++ {
			if Binomial(n, k) != Binomial(n-1, k-1)+Binomial(n-1, k) {
				t.Fatalf("Pascal identity fails at n=%d k=%d", n, k)
			}
		}
	}
}

func TestPairs(t *testing.T) {
	cases := []struct{ n, want int64 }{
		{0, 0}, {1, 0}, {2, 1}, {3, 3}, {10, 45},
	}
	for _, c := range cases {
		if got := Pairs(c.n); got != c.want {
			t.Errorf("Pairs(%d) = %d, want %d", c.n, got, c.want)
		}
	}
}

func TestNumFailureSets(t *testing.T) {
	// n=4, k=1: {} plus 4 singletons = 5.
	if got := NumFailureSets(4, 1); got != 5 {
		t.Fatalf("NumFailureSets(4,1) = %d, want 5", got)
	}
	// n=4, k=2: 1 + 4 + 6 = 11.
	if got := NumFailureSets(4, 2); got != 11 {
		t.Fatalf("NumFailureSets(4,2) = %d, want 11", got)
	}
	// k >= n: all 2^n subsets.
	if got := NumFailureSets(5, 5); got != 32 {
		t.Fatalf("NumFailureSets(5,5) = %d, want 32", got)
	}
	if got := NumFailureSets(5, 10); got != 32 {
		t.Fatalf("NumFailureSets(5,10) = %d, want 32", got)
	}
}

func TestCombinationsEnumeration(t *testing.T) {
	var got [][]int
	Combinations(4, 2, func(s []int) bool {
		cp := make([]int, len(s))
		copy(cp, s)
		got = append(got, cp)
		return true
	})
	want := [][]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Combinations(4,2) = %v, want %v", got, want)
	}
}

func TestCombinationsZeroK(t *testing.T) {
	calls := 0
	Combinations(5, 0, func(s []int) bool {
		if len(s) != 0 {
			t.Fatalf("expected empty subset, got %v", s)
		}
		calls++
		return true
	})
	if calls != 1 {
		t.Fatalf("k=0 should enumerate exactly the empty set, got %d calls", calls)
	}
}

func TestCombinationsInvalidK(t *testing.T) {
	calls := 0
	Combinations(3, 5, func([]int) bool { calls++; return true })
	Combinations(3, -1, func([]int) bool { calls++; return true })
	if calls != 0 {
		t.Fatalf("invalid k should enumerate nothing, got %d calls", calls)
	}
}

func TestCombinationsEarlyStop(t *testing.T) {
	calls := 0
	Combinations(10, 3, func([]int) bool {
		calls++
		return calls < 5
	})
	if calls != 5 {
		t.Fatalf("early stop: calls = %d, want 5", calls)
	}
}

func TestCombinationsCountMatchesBinomial(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for k := 0; k <= n; k++ {
			count := int64(0)
			Combinations(n, k, func([]int) bool { count++; return true })
			if count != Binomial(n, k) {
				t.Fatalf("Combinations(%d,%d) count = %d, want %d", n, k, count, Binomial(n, k))
			}
		}
	}
}

func TestSubsetsUpTo(t *testing.T) {
	var sizes []int
	SubsetsUpTo(4, 2, func(s []int) bool {
		sizes = append(sizes, len(s))
		return true
	})
	// 1 empty + 4 singletons + 6 pairs = 11, in size order.
	if len(sizes) != 11 {
		t.Fatalf("count = %d, want 11", len(sizes))
	}
	for i := 1; i < len(sizes); i++ {
		if sizes[i] < sizes[i-1] {
			t.Fatal("subsets should come in non-decreasing size order")
		}
	}
}

func TestSubsetsUpToEarlyStop(t *testing.T) {
	calls := 0
	SubsetsUpTo(10, 3, func([]int) bool {
		calls++
		return calls < 3
	})
	if calls != 3 {
		t.Fatalf("early stop across sizes: calls = %d, want 3", calls)
	}
}

func TestSubsetsUpToCount(t *testing.T) {
	for n := 0; n <= 10; n++ {
		for k := 0; k <= n+2; k++ {
			count := int64(0)
			SubsetsUpTo(n, k, func([]int) bool { count++; return true })
			if count != CombinationCount(n, k) {
				t.Fatalf("SubsetsUpTo(%d,%d) = %d, want %d", n, k, count, CombinationCount(n, k))
			}
		}
	}
}

// mustPanic fails unless fn panics.
func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", what)
		}
	}()
	fn()
}

// TestCountsPanicOnOverflow: Pairs and NumFailureSets fail the way
// Binomial does instead of wrapping. C(|F_3|, 2) over 4 904 nodes is
// about 1.9·10^20, and C(|F_2|, 2) first overflows at 92 682 nodes.
func TestCountsPanicOnOverflow(t *testing.T) {
	if got, want := Pairs(math.MaxInt32+1), int64(math.MaxInt32+1)*math.MaxInt32/2; got != want {
		t.Fatalf("Pairs(2^31) = %d, want %d", got, want)
	}
	if got := Pairs(3037000500); got != 4611686016981624750 {
		t.Fatalf("Pairs(3037000500) = %d", got)
	}
	if got, want := Pairs(1<<32), int64(math.MaxInt64-(1<<31-1)); got != want {
		t.Fatalf("Pairs(2^32) = %d, want %d", got, want)
	}
	if got := Pairs(-5); got != 0 {
		t.Fatalf("Pairs(-5) = %d, want 0", got)
	}
	mustPanic(t, "Pairs(2^32+1)", func() { Pairs(1<<32 + 1) })
	mustPanic(t, "Pairs(MaxInt64)", func() { Pairs(math.MaxInt64) })
	mustPanic(t, "Binomial(100, 50)", func() { Binomial(100, 50) })
	mustPanic(t, "NumFailureSets(100, 50)", func() { NumFailureSets(100, 50) })
	mustPanic(t, "NumFailureSets(63, 63)", func() { NumFailureSets(63, 63) })
	if got, want := NumFailureSets(40, 40), int64(1)<<40; got != want {
		t.Fatalf("NumFailureSets(40, 40) = %d, want %d", got, want)
	}
	if got := NumFailureSets(4904, 3); got != 19656229965 {
		t.Fatalf("|F_3| over 4 904 nodes = %d, want 19 656 229 965", got)
	}
	mustPanic(t, "Pairs(|F_3|) over 4 904 nodes", func() { Pairs(NumFailureSets(4904, 3)) })
	Pairs(NumFailureSets(92681, 2))
	mustPanic(t, "Pairs(|F_2|) over 92 682 nodes", func() { Pairs(NumFailureSets(92682, 2)) })
}

func TestCheckFailureSetPairs(t *testing.T) {
	for _, c := range []struct {
		n, k int
		ok   bool
	}{
		{4904, 1, true},
		{4904, 2, true},
		{4904, 3, false},
		{2953, 3, true},
		{2954, 3, false},
		{92681, 2, true},
		{92682, 2, false},
		{100, 50, false},
		{10, -1, true},
	} {
		if err := CheckFailureSetPairs(c.n, c.k); (err == nil) != c.ok {
			t.Errorf("CheckFailureSetPairs(%d, %d) = %v, want ok %v", c.n, c.k, err, c.ok)
		}
	}
}
