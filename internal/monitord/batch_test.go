package monitord

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitset"
)

// The TestLoop* tests below check batch application on the bare
// Monitor. They keep the names they had when the monitor ran in an event
// loop, so their record stays continuous.

// A batch applies as one unit: the states, the outage flag and the kept
// diagnosis after it describe the whole batch.
func TestLoopSequentialSemantics(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	events, err := m.ReportBatch(1, []int{0, 1}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) == 0 || events[0].Kind != EventOutageStarted {
		t.Fatalf("events = %v, want outage-started first", events)
	}
	if !m.InOutage() {
		t.Fatalf("not in outage after down report")
	}
	if m.State(0) != StateDown || m.State(1) != StateUp {
		t.Fatalf("states = %v, %v", m.State(0), m.State(1))
	}
	d, err := m.Diagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if got := len(d.Consistent); got != 2 {
		t.Fatalf("candidates = %v, want {0},{1}", d.Consistent)
	}
	if n := m.NumConnections(); n != 2 {
		t.Fatalf("NumConnections = %d, want 2", n)
	}

	events, err = m.ReportBatch(2, []int{0}, []bool{true})
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 1 || events[0].Kind != EventOutageCleared {
		t.Fatalf("events = %v, want outage-cleared", events)
	}
	if m.InOutage() {
		t.Fatalf("still in outage after all-clear")
	}
	if m.diag != nil || m.diagErr != nil {
		t.Fatalf("diagnosis %+v, error %v kept after all-clear", m.diag, m.diagErr)
	}
}

func TestLoopBadConnectionKeepsPrefix(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	events, err := m.ReportBatch(1, []int{0, 99}, []bool{false, false})
	if err == nil {
		t.Fatalf("out-of-range connection accepted")
	}
	if len(events) == 0 {
		t.Fatalf("prefix events lost on error")
	}
	if !m.InOutage() {
		t.Fatalf("prefix report not applied")
	}
}

// TestLoopMismatchedBatchRejected is the regression test for the
// panic a short ups slice used to cause: ReportBatch indexed ups[i] for
// every conns entry, so a length mismatch crashed the daemon. The batch
// must be rejected whole, before any report applies.
func TestLoopMismatchedBatchRejected(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	events, err := m.ReportBatch(1, []int{0, 1}, []bool{false})
	if err == nil {
		t.Fatalf("mismatched batch accepted")
	}
	if len(events) != 0 {
		t.Fatalf("events = %v, want none from a rejected batch", events)
	}
	if m.InOutage() {
		t.Fatalf("rejected batch still applied a report")
	}
	for i := 0; i < m.NumConnections(); i++ {
		if st := m.State(i); st != StateUnknown {
			t.Fatalf("connection %d state = %v, want unknown", i, st)
		}
	}
	// The longer-ups direction must be rejected too, not silently truncated.
	if _, err := m.ReportBatch(2, []int{0}, []bool{false, true}); err == nil {
		t.Fatalf("oversized ups slice accepted")
	}
}

// An empty batch is a no-op, not an error: the ingest path forwards
// whatever the wire carried, and zero reports must leave no trace.
func TestLoopEmptyBatch(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	events, err := m.ReportBatch(1, nil, nil)
	if err != nil {
		t.Fatalf("empty batch rejected: %v", err)
	}
	if len(events) != 0 {
		t.Fatalf("empty batch produced events: %v", events)
	}
	for i := 0; i < m.NumConnections(); i++ {
		if st := m.State(i); st != StateUnknown {
			t.Fatalf("connection %d state = %v after empty batch", i, st)
		}
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
		if _, err := m.ReportBatch(1, conns, downs); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyIncremental(); err != nil {
			t.Fatalf("trial %d after all-down: %v", trial, err)
		}
		if !m.InOutage() {
			t.Fatalf("trial %d: not in outage with every path down", trial)
		}
		if _, err := m.ReportBatch(2, conns, ups); err != nil {
			t.Fatal(err)
		}
		if err := m.VerifyIncremental(); err != nil {
			t.Fatalf("trial %d after all-up: %v", trial, err)
		}
		if m.InOutage() {
			t.Fatalf("trial %d: still in outage with every path up", trial)
		}
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
