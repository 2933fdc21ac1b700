package monitord

import (
	"fmt"
	"reflect"
	"strconv"

	"repro/internal/bitset"
	"repro/internal/monitor"
	"repro/internal/tomography"
)

// ConnState is the last known state of one monitored connection.
type ConnState int

// Connection states.
const (
	// StateUnknown means the connection has not reported yet; it
	// contributes nothing to the diagnosis.
	StateUnknown ConnState = iota
	// StateUp means the last report was a success.
	StateUp
	// StateDown means the last report was a failure.
	StateDown
)

// String renders the state.
func (s ConnState) String() string {
	switch s {
	case StateUnknown:
		return "unknown"
	case StateUp:
		return "up"
	case StateDown:
		return "down"
	default:
		return fmt.Sprintf("ConnState(%d)", int(s))
	}
}

// EventKind classifies daemon events.
type EventKind int

// Daemon event kinds.
const (
	// EventOutageStarted fires when the first connection goes down after
	// an all-clear period.
	EventOutageStarted EventKind = iota + 1
	// EventDiagnosisChanged fires whenever the candidate failure sets
	// change while an outage is in progress.
	EventDiagnosisChanged
	// EventOutageCleared fires when every reporting connection is up
	// again.
	EventOutageCleared
	// EventInconsistent fires when no failure set within the budget
	// explains the reports (more failures than k, or conflicting data).
	EventInconsistent
)

// String renders the kind.
func (k EventKind) String() string {
	switch k {
	case EventOutageStarted:
		return "outage-started"
	case EventDiagnosisChanged:
		return "diagnosis-changed"
	case EventOutageCleared:
		return "outage-cleared"
	case EventInconsistent:
		return "inconsistent"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// Event is one daemon notification.
type Event struct {
	Time float64
	Kind EventKind
	// Diagnosis accompanies EventOutageStarted and
	// EventDiagnosisChanged.
	Diagnosis *tomography.Diagnosis
}

// Monitor is the daemon state. Create with New; not safe for concurrent
// use.
//
// Beyond the per-connection states, the monitor maintains the incremental
// observation structures of the paper's Section V-D1: the reporting
// path set (grown once per connection, the first time it reports), the
// aligned failed flags, and per-node up/down coverage counters. A state
// transition therefore costs O(|path|) bookkeeping instead of an
// O(all paths) rebuild, and the k = 1 rolling diagnosis is answered from
// the counters alone — the same incrementality Algorithm 1 applies to
// the equivalence graph as paths arrive.
type Monitor struct {
	numNodes int
	k        int
	paths    []*bitset.Set
	states   []ConnState
	inOutage bool
	lastKey  string

	// Incremental observation state. ps collects the paths of reporting
	// connections in first-report order (a connection never returns to
	// unknown, so ps is append-only); failed is index-aligned with ps;
	// pos maps a connection to its ps index (-1 while unknown).
	ps     *monitor.PathSet
	failed []bool
	pos    []int
	// upCount/downCount count, per node, the reporting up/down paths
	// covering it; downTotal counts down paths. Together they answer
	// "healthy", "covered", and the k = 1 candidate test in O(1) per node.
	upCount   []int
	downCount []int
	downTotal int
}

// New creates a monitor for a fixed set of monitored connections, each
// identified by its index and described by the node set of its routed
// path. k is the failure budget used for diagnosis.
func New(numNodes, k int, paths []*bitset.Set) (*Monitor, error) {
	if numNodes <= 0 {
		return nil, fmt.Errorf("monitord: numNodes = %d", numNodes)
	}
	if k < 1 {
		return nil, fmt.Errorf("monitord: k = %d", k)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("monitord: no connections")
	}
	m := &Monitor{
		numNodes:  numNodes,
		k:         k,
		paths:     make([]*bitset.Set, len(paths)),
		states:    make([]ConnState, len(paths)),
		ps:        monitor.NewPathSet(numNodes),
		failed:    make([]bool, 0, len(paths)),
		pos:       make([]int, len(paths)),
		upCount:   make([]int, numNodes),
		downCount: make([]int, numNodes),
	}
	for i, p := range paths {
		if p == nil || p.Cap() != numNodes || p.Empty() {
			return nil, fmt.Errorf("monitord: connection %d has an invalid path", i)
		}
		m.paths[i] = p.Clone()
		m.pos[i] = -1
	}
	return m, nil
}

// NumConnections returns the number of monitored connections.
func (m *Monitor) NumConnections() int { return len(m.paths) }

// State returns the last known state of connection i.
func (m *Monitor) State(i int) ConnState { return m.states[i] }

// InOutage reports whether at least one reporting connection is down.
func (m *Monitor) InOutage() bool { return m.inOutage }

// Report feeds one connection observation at virtual time t and returns
// the events it triggered (possibly none). Repeated identical reports are
// cheap no-ops.
func (m *Monitor) Report(t float64, conn int, up bool) ([]Event, error) {
	if conn < 0 || conn >= len(m.paths) {
		return nil, fmt.Errorf("monitord: connection %d out of range", conn)
	}
	newState := StateDown
	if up {
		newState = StateUp
	}
	if m.states[conn] == newState {
		return nil, nil
	}
	m.applyTransition(conn, m.states[conn], up)
	m.states[conn] = newState

	anyDown := m.downTotal > 0

	var events []Event
	switch {
	case anyDown && !m.inOutage:
		m.inOutage = true
		diag, err := m.diagnose()
		if err != nil {
			events = append(events,
				Event{Time: t, Kind: EventOutageStarted},
				Event{Time: t, Kind: EventInconsistent})
			m.lastKey = "!"
			return events, nil
		}
		m.lastKey = diagnosisKey(diag)
		events = append(events, Event{Time: t, Kind: EventOutageStarted, Diagnosis: diag})
	case anyDown && m.inOutage:
		diag, err := m.diagnose()
		if err != nil {
			if m.lastKey != "!" {
				m.lastKey = "!"
				events = append(events, Event{Time: t, Kind: EventInconsistent})
			}
			return events, nil
		}
		if key := diagnosisKey(diag); key != m.lastKey {
			m.lastKey = key
			events = append(events, Event{Time: t, Kind: EventDiagnosisChanged, Diagnosis: diag})
		}
	case !anyDown && m.inOutage:
		m.inOutage = false
		m.lastKey = ""
		events = append(events, Event{Time: t, Kind: EventOutageCleared})
	}
	return events, nil
}

// ReportBatch feeds several observations at the same virtual time, in
// order, and returns the concatenated events. A conns/ups length
// mismatch rejects the whole batch before anything is applied; on a bad
// connection index the prefix already applied stays applied, and its
// events are returned alongside the error.
func (m *Monitor) ReportBatch(t float64, conns []int, ups []bool) ([]Event, error) {
	if len(conns) != len(ups) {
		return nil, fmt.Errorf("monitord: batch has %d connections but %d states", len(conns), len(ups))
	}
	var events []Event
	for i, conn := range conns {
		evs, err := m.Report(t, conn, ups[i])
		events = append(events, evs...)
		if err != nil {
			return events, err
		}
	}
	return events, nil
}

// Diagnosis returns the current diagnosis, computed incrementally from
// the maintained observation structures. It returns an error outside
// outages (nothing to diagnose) or when the reports are inconsistent
// with the failure budget.
func (m *Monitor) Diagnosis() (*tomography.Diagnosis, error) {
	if !m.inOutage {
		return nil, fmt.Errorf("monitord: no outage in progress")
	}
	return m.diagnose()
}

// DiagnosisFromScratch recomputes the diagnosis the pre-incremental way:
// rebuild the reporting path set from the connection states and run the
// full localization. It exists as the reference the incremental path is
// pinned against (chaos soak, crash matrix, and the equivalence tests
// assert bit-identical results); production callers want Diagnosis.
func (m *Monitor) DiagnosisFromScratch() (*tomography.Diagnosis, error) {
	if !m.inOutage {
		return nil, fmt.Errorf("monitord: no outage in progress")
	}
	return m.diagnoseFromScratch()
}

// VerifyIncremental cross-checks the incremental diagnosis against a
// from-scratch recompute and returns an error describing the first
// divergence. Outside outages it verifies the bookkeeping invariants
// (counters and path set versus states) instead.
func (m *Monitor) VerifyIncremental() error {
	if err := m.verifyCounters(); err != nil {
		return err
	}
	if !m.inOutage {
		return nil
	}
	inc, incErr := m.diagnose()
	ref, refErr := m.diagnoseFromScratch()
	if (incErr != nil) != (refErr != nil) {
		return fmt.Errorf("monitord: incremental diagnosis error %v, from-scratch %v", incErr, refErr)
	}
	if incErr != nil {
		return nil // both inconsistent: agreement
	}
	if !reflect.DeepEqual(inc, ref) {
		return fmt.Errorf("monitord: incremental diagnosis diverged from from-scratch recompute:\nincremental: %+v\nfrom-scratch: %+v", inc, ref)
	}
	return nil
}

// verifyCounters recomputes the incremental bookkeeping from the states
// and compares.
func (m *Monitor) verifyCounters() error {
	up := make([]int, m.numNodes)
	down := make([]int, m.numNodes)
	total := 0
	reporting := 0
	for i, s := range m.states {
		if s == StateUnknown {
			if m.pos[i] != -1 {
				return fmt.Errorf("monitord: unknown connection %d has path-set position %d", i, m.pos[i])
			}
			continue
		}
		reporting++
		if m.pos[i] < 0 || m.pos[i] >= m.ps.Len() {
			return fmt.Errorf("monitord: reporting connection %d has position %d outside path set of %d", i, m.pos[i], m.ps.Len())
		}
		if m.failed[m.pos[i]] != (s == StateDown) {
			return fmt.Errorf("monitord: connection %d state %v disagrees with failed flag", i, s)
		}
		isDown := s == StateDown
		if isDown {
			total++
		}
		m.paths[i].ForEach(func(v int) bool {
			if isDown {
				down[v]++
			} else {
				up[v]++
			}
			return true
		})
	}
	if reporting != m.ps.Len() {
		return fmt.Errorf("monitord: %d reporting connections but %d paths in the incremental set", reporting, m.ps.Len())
	}
	if total != m.downTotal {
		return fmt.Errorf("monitord: downTotal = %d, states say %d", m.downTotal, total)
	}
	for v := 0; v < m.numNodes; v++ {
		if up[v] != m.upCount[v] || down[v] != m.downCount[v] {
			return fmt.Errorf("monitord: node %d counters (up %d, down %d) disagree with states (up %d, down %d)",
				v, m.upCount[v], m.downCount[v], up[v], down[v])
		}
	}
	return nil
}

// applyTransition maintains the incremental observation structures for
// one connection moving from old to the state implied by up. The caller
// has already ruled out a no-op transition.
func (m *Monitor) applyTransition(conn int, old ConnState, up bool) {
	p := m.paths[conn]
	if old == StateUnknown {
		// First report: the connection's path joins the reporting set.
		// ps.Add cannot fail here — the path was validated by New against
		// the same universe ps was built over.
		_ = m.ps.Add(p)
		m.failed = append(m.failed, !up)
		m.pos[conn] = m.ps.Len() - 1
		p.ForEach(func(v int) bool {
			if up {
				m.upCount[v]++
			} else {
				m.downCount[v]++
			}
			return true
		})
		if !up {
			m.downTotal++
		}
		return
	}
	// Up/down flip of an already reporting connection.
	m.failed[m.pos[conn]] = !up
	p.ForEach(func(v int) bool {
		if up {
			m.downCount[v]--
			m.upCount[v]++
		} else {
			m.upCount[v]--
			m.downCount[v]++
		}
		return true
	})
	if up {
		m.downTotal--
	} else {
		m.downTotal++
	}
}

// diagnose computes the diagnosis from the incrementally maintained
// observation: a counter-driven O(|N|) construction when the failure
// budget is 1 (the common case), the full enumeration over the
// maintained path set otherwise. Either way the result is bit-identical
// to diagnoseFromScratch, which the tests pin.
func (m *Monitor) diagnose() (*tomography.Diagnosis, error) {
	if m.k == 1 && m.downTotal > 0 {
		return m.diagnoseK1()
	}
	// The enumeration cost is Θ(|F_k|) regardless, but the observation
	// itself is already maintained — no per-call path-set rebuild. The
	// Observation is constructed directly (not via NewObservation) to
	// skip the defensive copy; Localize does not retain or mutate it.
	obs := &tomography.Observation{Paths: m.ps, Failed: m.failed}
	return tomography.Localize(obs, m.k)
}

// diagnoseK1 answers the k = 1 diagnosis from the per-node counters: the
// singleton {v} is consistent iff v lies on no up path and on every down
// path. The construction mirrors tomography.Localize exactly (same
// bitset-driven field building, same enumeration order) so the result is
// bit-identical to the from-scratch recompute.
func (m *Monitor) diagnoseK1() (*tomography.Diagnosis, error) {
	n := m.numNodes
	d := &tomography.Diagnosis{}
	inAll := bitset.New(n)
	for v := 0; v < n; v++ {
		inAll.Add(v)
	}
	inAny := bitset.New(n)
	healthy := bitset.New(n)
	for v := 0; v < n; v++ {
		if m.upCount[v] > 0 {
			healthy.Add(v)
		}
	}
	for v := 0; v < n; v++ {
		if m.upCount[v] == 0 && m.downCount[v] == m.downTotal {
			member := bitset.FromIndices(n, v)
			inAll.IntersectWith(member)
			inAny.UnionWith(member)
			d.Consistent = append(d.Consistent, []int{v})
		}
	}
	if len(d.Consistent) == 0 {
		return nil, fmt.Errorf("tomography: no failure set of size ≤ %d explains the observation", m.k)
	}
	d.DefinitelyFailed = inAll.Indices()
	d.PossiblyFailed = inAny.Indices()
	d.Healthy = healthy.Indices()
	for v := 0; v < n; v++ {
		if m.upCount[v] == 0 && m.downCount[v] == 0 {
			d.Unobserved = append(d.Unobserved, v)
		}
	}
	return d, nil
}

// diagnoseFromScratch is the reference recompute: rebuild the reporting
// path set from the connection states and localize over it.
func (m *Monitor) diagnoseFromScratch() (*tomography.Diagnosis, error) {
	ps := monitor.NewPathSet(m.numNodes)
	var failed []bool
	for i, s := range m.states {
		if s == StateUnknown {
			continue
		}
		if err := ps.Add(m.paths[i]); err != nil {
			return nil, err
		}
		failed = append(failed, s == StateDown)
	}
	obs, err := tomography.NewObservation(ps, failed)
	if err != nil {
		return nil, err
	}
	return tomography.Localize(obs, m.k)
}

// diagnosisKey fingerprints the candidate list so changes are detectable.
func diagnosisKey(d *tomography.Diagnosis) string {
	var b []byte
	for _, f := range d.Consistent {
		b = append(b, '[')
		for _, v := range f {
			b = strconv.AppendInt(b, int64(v), 10)
			b = append(b, ',')
		}
		b = append(b, ']')
	}
	return string(b)
}
