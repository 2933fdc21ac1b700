package monitord

import (
	"reflect"
	"testing"

	"repro/internal/bitset"
)

// twoBranchMonitor watches connections over a 5-node network:
// conn 0: {0,1,2} (client 0 via 1 to host 2)
// conn 1: {4,3,2} (client 4 via 3 to host 2)
func twoBranchMonitor(t testing.TB, k int) *Monitor {
	t.Helper()
	m, err := New(5, k, []*bitset.Set{
		bitset.FromIndices(5, 0, 1, 2),
		bitset.FromIndices(5, 4, 3, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	ok := bitset.FromIndices(3, 0)
	if _, err := New(0, 1, []*bitset.Set{ok}); err == nil {
		t.Fatal("numNodes=0 should error")
	}
	if _, err := New(3, 0, []*bitset.Set{ok}); err == nil {
		t.Fatal("k=0 should error")
	}
	if _, err := New(3, 1, nil); err == nil {
		t.Fatal("no connections should error")
	}
	if _, err := New(3, 1, []*bitset.Set{nil}); err == nil {
		t.Fatal("nil path should error")
	}
	if _, err := New(3, 1, []*bitset.Set{bitset.New(3)}); err == nil {
		t.Fatal("empty path should error")
	}
	if _, err := New(3, 1, []*bitset.Set{bitset.FromIndices(4, 0)}); err == nil {
		t.Fatal("universe mismatch should error")
	}
}

func TestReportOutOfRange(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	if _, err := m.Report(0, 5, true); err == nil {
		t.Fatal("bad connection index should error")
	}
}

func TestOutageLifecycle(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	if m.InOutage() {
		t.Fatal("fresh monitor should not be in outage")
	}
	if m.NumConnections() != 2 {
		t.Fatal("wrong connection count")
	}

	// Both connections report up: no events.
	ev, err := m.Report(1, 0, true)
	if err != nil || len(ev) != 0 {
		t.Fatalf("up report: %v, %v", ev, err)
	}
	ev, err = m.Report(1, 1, true)
	if err != nil || len(ev) != 0 {
		t.Fatalf("up report: %v, %v", ev, err)
	}
	if m.State(0) != StateUp || m.State(1) != StateUp {
		t.Fatal("states should be up")
	}

	// Connection 0 goes down: outage starts with a diagnosis. Nodes 0 and
	// 1 are candidates; node 2 is exonerated by the healthy conn 1.
	ev, err = m.Report(2, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventOutageStarted {
		t.Fatalf("events = %v", ev)
	}
	if ev[0].Time != 2 {
		t.Fatalf("event time = %v", ev[0].Time)
	}
	if got := ev[0].Diagnosis.Consistent; !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("candidates = %v", got)
	}
	if !m.InOutage() {
		t.Fatal("should be in outage")
	}

	// Duplicate report: no-op.
	ev, err = m.Report(3, 0, false)
	if err != nil || len(ev) != 0 {
		t.Fatalf("duplicate report: %v, %v", ev, err)
	}

	// Recovery: outage cleared.
	ev, err = m.Report(4, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventOutageCleared {
		t.Fatalf("events = %v", ev)
	}
	if m.InOutage() {
		t.Fatal("outage should be over")
	}
}

// ReportBatch's own semantics, on the bare Monitor: a batch emits what
// its reports emit one at a time, a conns/ups length mismatch applies
// nothing, a bad connection index keeps the applied prefix and returns
// its events with the error, and an empty batch is a no-op.
func TestReportBatch(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	ev, err := m.ReportBatch(1, []int{0, 1}, []bool{false, true})
	if err != nil {
		t.Fatal(err)
	}
	one := twoBranchMonitor(t, 1)
	var want []Event
	for i, conn := range []int{0, 1} {
		evs, err := one.Report(1, conn, []bool{false, true}[i])
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, evs...)
	}
	if !reflect.DeepEqual(ev, want) {
		t.Fatalf("batch events = %v, report by report %v", ev, want)
	}

	m = twoBranchMonitor(t, 1)
	for _, ups := range [][]bool{{false}, {false, true, true}} {
		if ev, err := m.ReportBatch(1, []int{0, 1}, ups); err == nil || len(ev) != 0 {
			t.Fatalf("%d states for 2 connections: events %v, err %v", len(ups), ev, err)
		}
	}
	if m.State(0) != StateUnknown || m.State(1) != StateUnknown {
		t.Fatalf("rejected batch applied a report: states %v, %v", m.State(0), m.State(1))
	}

	ev, err = m.ReportBatch(1, []int{0, 99, 1}, []bool{false, false, true})
	if err == nil {
		t.Fatal("out-of-range connection accepted")
	}
	if len(ev) != 1 || ev[0].Kind != EventOutageStarted {
		t.Fatalf("prefix events = %v, want outage-started", ev)
	}
	if m.State(0) != StateDown || m.State(1) != StateUnknown {
		t.Fatalf("states %v, %v, want the prefix applied and nothing after it", m.State(0), m.State(1))
	}

	if ev, err := m.ReportBatch(2, nil, nil); err != nil || len(ev) != 0 {
		t.Fatalf("empty batch: events %v, err %v", ev, err)
	}
}

func TestDiagnosisRefinesAsReportsArrive(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	// Only connection 0 has reported, and it is down: candidates are all
	// of its nodes {0}, {1}, {2}.
	ev, err := m.Report(1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventOutageStarted {
		t.Fatalf("events = %v", ev)
	}
	if got := len(ev[0].Diagnosis.Consistent); got != 3 {
		t.Fatalf("candidates = %v", ev[0].Diagnosis.Consistent)
	}

	// Connection 1 reports up: node 2 exonerated → diagnosis changes.
	ev, err = m.Report(2, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventDiagnosisChanged {
		t.Fatalf("events = %v", ev)
	}
	if got := ev[0].Diagnosis.Consistent; !reflect.DeepEqual(got, [][]int{{0}, {1}}) {
		t.Fatalf("candidates = %v", got)
	}

	// Direct query matches.
	d, err := m.Diagnosis()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(d.Consistent, [][]int{{0}, {1}}) {
		t.Fatalf("Diagnosis = %v", d.Consistent)
	}
}

func TestDiagnosisOutsideOutageErrors(t *testing.T) {
	m := twoBranchMonitor(t, 1)
	if _, err := m.Diagnosis(); err == nil {
		t.Fatal("no-outage diagnosis should error")
	}
}

func TestInconsistentReports(t *testing.T) {
	// Disjoint single-node connections; k=1 cannot explain both down.
	m, err := New(4, 1, []*bitset.Set{
		bitset.FromIndices(4, 0),
		bitset.FromIndices(4, 2),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report(1, 0, false); err != nil {
		t.Fatal(err)
	}
	ev, err := m.Report(2, 1, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventInconsistent {
		t.Fatalf("events = %v", ev)
	}
	// Staying inconsistent does not spam events.
	ev, err = m.Report(3, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 1 || ev[0].Kind != EventDiagnosisChanged {
		t.Fatalf("events after partial recovery = %v", ev)
	}
}

func TestStrings(t *testing.T) {
	if StateUnknown.String() != "unknown" || StateUp.String() != "up" || StateDown.String() != "down" {
		t.Fatal("ConnState strings wrong")
	}
	if ConnState(9).String() == "" {
		t.Fatal("unknown state should render")
	}
	for k, want := range map[EventKind]string{
		EventOutageStarted:    "outage-started",
		EventDiagnosisChanged: "diagnosis-changed",
		EventOutageCleared:    "outage-cleared",
		EventInconsistent:     "inconsistent",
		EventKind(42):         "EventKind(42)",
	} {
		if k.String() != want {
			t.Fatalf("EventKind %d = %q, want %q", int(k), k.String(), want)
		}
	}
}

func TestOutageStartWithInconsistentFirstReport(t *testing.T) {
	// k=1 monitor where the very first report is already unexplainable:
	// a down connection whose only node is also on an up connection.
	m, err := New(3, 1, []*bitset.Set{
		bitset.FromIndices(3, 0),
		bitset.FromIndices(3, 0, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Report(0, 1, true); err != nil {
		t.Fatal(err)
	}
	ev, err := m.Report(1, 0, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(ev) != 2 || ev[0].Kind != EventOutageStarted || ev[1].Kind != EventInconsistent {
		t.Fatalf("events = %v", ev)
	}
}
