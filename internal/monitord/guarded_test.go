package monitord

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/bitset"
)

// newGuardedLine builds a Guarded monitor over a 5-node line 0-1-2-3-4
// with two connections: 0→2 (nodes 0,1,2) and 4→2 (nodes 2,3,4).
func newGuardedLine(t *testing.T) *Guarded {
	t.Helper()
	paths := []*bitset.Set{
		bitset.FromIndices(5, 0, 1, 2),
		bitset.FromIndices(5, 2, 3, 4),
	}
	m, err := New(5, 1, paths)
	if err != nil {
		t.Fatal(err)
	}
	l := NewGuarded(m)
	t.Cleanup(l.Close)
	return l
}

// The TestLoop* tests below check Guarded. They keep the names they had
// when the type was an event loop, so their record stays continuous.

// The guarded monitor must present sequential semantics: a batch applies
// as one unit, snapshots and diagnoses see whole batches only.
func TestLoopSequentialSemantics(t *testing.T) {
	l := newGuardedLine(t)
	events, err := l.ReportBatch(1, []int{0, 1}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != EventOutageStarted {
		t.Fatalf("events = %v, want outage-started first", events)
	}
	snap := l.Snapshot()
	if !snap.InOutage {
		t.Fatalf("not in outage after down report")
	}
	if !l.InOutage() {
		t.Fatalf("InOutage disagrees with Snapshot")
	}
	if snap.States[0] != StateDown || snap.States[1] != StateUp {
		t.Fatalf("states = %v", snap.States)
	}
	diag, err := l.Diagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(diag.Consistent); got != 2 {
		t.Fatalf("candidates = %v, want {0},{1}", diag.Consistent)
	}
	if n := l.NumConnections(); n != 2 {
		t.Fatalf("NumConnections = %d, want 2", n)
	}

	events, err = l.ReportBatch(2, []int{0}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventOutageCleared {
		t.Fatalf("events = %v, want outage-cleared", events)
	}
	if l.InOutage() {
		t.Fatalf("still in outage after all-clear")
	}
}

func TestLoopBadConnectionKeepsPrefix(t *testing.T) {
	l := newGuardedLine(t)
	events, err := l.ReportBatch(1, []int{0, 99}, []bool{false, false})
	if err == nil {
		t.Fatalf("out-of-range connection accepted")
	}
	if len(events) == 0 {
		t.Fatalf("prefix events lost on error")
	}
	if !l.Snapshot().InOutage {
		t.Fatalf("prefix report not applied")
	}
}

// TestLoopMismatchedBatchRejected is the regression test for the
// panic a short ups slice used to cause: ReportBatch indexed ups[i] for
// every conns entry, so a length mismatch crashed the daemon. The batch
// must be rejected whole, before any report applies.
func TestLoopMismatchedBatchRejected(t *testing.T) {
	l := newGuardedLine(t)
	events, err := l.ReportBatch(1, []int{0, 1}, []bool{false})
	if err == nil {
		t.Fatalf("mismatched batch accepted")
	}
	if len(events) != 0 {
		t.Fatalf("events = %v, want none from a rejected batch", events)
	}
	snap := l.Snapshot()
	if snap.InOutage {
		t.Fatalf("rejected batch still applied a report")
	}
	for i, st := range snap.States {
		if st != StateUnknown {
			t.Fatalf("connection %d state = %v, want unknown", i, st)
		}
	}
	// The longer-ups direction must be rejected too, not silently truncated.
	if _, err := l.ReportBatch(2, []int{0}, []bool{false, true}); err == nil {
		t.Fatalf("oversized ups slice accepted")
	}
}

// An empty batch is a no-op, not an error: the ingest path forwards
// whatever the wire carried, and zero reports must leave no trace.
func TestLoopEmptyBatch(t *testing.T) {
	l := newGuardedLine(t)
	events, err := l.ReportBatch(1, nil, nil)
	if err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("empty batch produced events: %v", events)
	}
	for i, st := range l.Snapshot().States {
		if st != StateUnknown {
			t.Fatalf("connection %d state = %v after empty batch", i, st)
		}
	}
}

// After Close every operation reports ErrClosed (or a zero value), and
// Close stays idempotent.
func TestLoopClosed(t *testing.T) {
	l := newGuardedLine(t)
	if _, err := l.ReportBatch(1, []int{0}, []bool{false}); err != nil {
		t.Fatal(err)
	}
	l.Close()
	l.Close() // idempotent

	if _, err := l.ReportBatch(2, []int{0}, []bool{true}); !errors.Is(err, ErrClosed) {
		t.Fatalf("ReportBatch after Close: err = %v, want ErrClosed", err)
	}
	if _, err := l.Diagnosis(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Diagnosis after Close: err = %v, want ErrClosed", err)
	}
	if err := l.RestoreState(State{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("RestoreState after Close: err = %v, want ErrClosed", err)
	}
	if snap := l.Snapshot(); snap.InOutage || snap.States != nil {
		t.Fatalf("Snapshot after Close = %+v, want zero", snap)
	}
	if l.InOutage() {
		t.Fatalf("InOutage true after Close")
	}
	if _, ok := l.ExportState(); ok {
		t.Fatalf("ExportState after Close reported ok")
	}
	if err := l.VerifyIncremental(); !errors.Is(err, ErrClosed) {
		t.Fatalf("VerifyIncremental after Close: err = %v, want ErrClosed", err)
	}
	// The connection count is fixed at construction and survives Close.
	if n := l.NumConnections(); n != 2 {
		t.Fatalf("NumConnections after Close = %d, want 2", n)
	}
}

// TestLoopConcurrent hammers the monitor from many goroutines, with
// one closing it midway; run with -race. Every operation must either
// succeed or fail with ErrClosed — never panic, deadlock, or corrupt
// state.
func TestLoopConcurrent(t *testing.T) {
	l := newGuardedLine(t)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				up := (i+w)%3 != 0
				if _, err := l.ReportBatch(float64(i), []int{w % 2}, []bool{up}); err != nil && !errors.Is(err, ErrClosed) {
					t.Error(err)
					return
				}
				snap := l.Snapshot()
				if len(snap.States) != 2 && snap.States != nil {
					t.Errorf("snapshot states = %v", snap.States)
					return
				}
				if snap.InOutage {
					if _, err := l.Diagnosis(); err != nil && !errors.Is(err, ErrClosed) {
						// "no outage" races with clearing reports and is
						// expected; other errors surface via -race.
						continue
					}
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()
	if _, err := l.ReportBatch(0, []int{0}, []bool{true}); !errors.Is(err, ErrClosed) {
		t.Fatalf("post-close ReportBatch: err = %v, want ErrClosed", err)
	}
}

// randomMonitor builds a monitor over random overlapping paths, shared by
// the incremental-equivalence tests.
func randomMonitor(t *testing.T, rng *rand.Rand, k int) (*Monitor, int, int) {
	t.Helper()
	n := 3 + rng.Intn(6)
	numConns := 2 + rng.Intn(5)
	paths := make([]*bitset.Set, numConns)
	for i := range paths {
		p := bitset.New(n)
		start := rng.Intn(n)
		for j := 0; j <= rng.Intn(3); j++ {
			p.Add((start + j) % n)
		}
		paths[i] = p
	}
	m, err := New(n, k, paths)
	if err != nil {
		t.Fatal(err)
	}
	return m, n, numConns
}

// The tentpole invariant: the incremental rolling diagnosis must stay
// bit-identical to a from-scratch recompute after every report, for k=1
// (the closed-form fast path) and k=2 (the generic path), across random
// report streams. VerifyIncremental also cross-checks the per-node
// counters against the ground-truth states.
func TestIncrementalMatchesScratchRandom(t *testing.T) {
	for _, k := range []int{1, 2} {
		rng := rand.New(rand.NewSource(int64(1000 + k)))
		for trial := 0; trial < 25; trial++ {
			m, _, numConns := randomMonitor(t, rng, k)
			for step := 0; step < 20; step++ {
				conn := rng.Intn(numConns)
				up := rng.Intn(2) == 0
				if _, err := m.Report(float64(step), conn, up); err != nil {
					t.Fatal(err)
				}
				if err := m.VerifyIncremental(); err != nil {
					t.Fatalf("k=%d trial %d step %d: %v", k, trial, step, err)
				}
			}
		}
	}
}

// Flipping every path down in one batch — the worst case for the
// incremental path — and then every path up must keep the incremental
// state consistent at each boundary.
func TestIncrementalAllPathsFlip(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 10; trial++ {
		m, _, numConns := randomMonitor(t, rng, 1)
		conns := make([]int, numConns)
		downs := make([]bool, numConns)
		ups := make([]bool, numConns)
		for i := range conns {
			conns[i] = i
			ups[i] = true
		}
		l := NewGuarded(m)
		if _, err := l.ReportBatch(1, conns, downs); err != nil {
			t.Fatal(err)
		}
		if err := l.VerifyIncremental(); err != nil {
			t.Fatalf("trial %d after all-down: %v", trial, err)
		}
		if !l.InOutage() {
			t.Fatalf("trial %d: not in outage with every path down", trial)
		}
		if _, err := l.ReportBatch(2, conns, ups); err != nil {
			t.Fatal(err)
		}
		if err := l.VerifyIncremental(); err != nil {
			t.Fatalf("trial %d after all-up: %v", trial, err)
		}
		if l.InOutage() {
			t.Fatalf("trial %d: still in outage with every path up", trial)
		}
		l.Close()
	}
}

// Restoring exported state must rebuild the incremental structures, not
// just the raw states: the restored monitor's diagnosis has to match the
// original bit for bit and pass the self-check.
func TestRestoreStateRebuildsIncremental(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 15; trial++ {
		m, n, numConns := randomMonitor(t, rng, 1)
		paths := make([]*bitset.Set, numConns)
		for i := range paths {
			paths[i] = m.paths[i]
		}
		for step := 0; step < 15; step++ {
			if _, err := m.Report(float64(step), rng.Intn(numConns), rng.Intn(2) == 0); err != nil {
				t.Fatal(err)
			}
		}
		st := m.ExportState()

		m2, err := New(n, 1, paths)
		if err != nil {
			t.Fatal(err)
		}
		if err := m2.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if err := m2.VerifyIncremental(); err != nil {
			t.Fatalf("trial %d: restored monitor fails self-check: %v", trial, err)
		}
		if m.InOutage() {
			d1, err1 := m.Diagnosis()
			d2, err2 := m2.Diagnosis()
			if (err1 == nil) != (err2 == nil) {
				t.Fatalf("trial %d: error disagreement: %v vs %v", trial, err1, err2)
			}
			if err1 == nil && !reflect.DeepEqual(d1, d2) {
				t.Fatalf("trial %d: restored diagnosis %+v != original %+v", trial, d2, d1)
			}
		}
	}
}
