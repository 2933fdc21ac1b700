package monitord

import (
	"fmt"

	"repro/internal/monitor"
)

// State is the monitor's replayable core: everything Report consults when
// deciding which events a future observation emits. Exporting it, folding
// it into a snapshot, and restoring it on a fresh Monitor built from the
// same paths yields a daemon that continues the event stream exactly
// where the exported one stopped — the property placemond's write-ahead
// log compaction depends on.
type State struct {
	// States is the last known state per connection, index-aligned with
	// the monitor's paths.
	States []ConnState `json:"states"`
	// InOutage mirrors the outage flag.
	InOutage bool `json:"in_outage"`
	// LastKey is the fingerprint of the last emitted diagnosis ("!" after
	// an inconsistent localization, "" outside outages); it decides
	// whether the next diagnosis emits EventDiagnosisChanged.
	LastKey string `json:"last_key,omitempty"`
}

// ExportState captures the monitor's replayable state.
func (m *Monitor) ExportState() State {
	return State{
		States:   append([]ConnState(nil), m.states...),
		InOutage: m.inOutage,
		LastKey:  m.lastKey,
	}
}

// RestoreState overwrites the monitor's state with a previously exported
// one, and diagnoses it when it is in outage. The connection count must
// match the monitor's paths — state from a differently shaped scenario
// is refused.
func (m *Monitor) RestoreState(st State) error {
	if len(st.States) != len(m.paths) {
		return fmt.Errorf("monitord: state has %d connections, monitor has %d", len(st.States), len(m.paths))
	}
	for i, s := range st.States {
		if s != StateUnknown && s != StateUp && s != StateDown {
			return fmt.Errorf("monitord: state %d has invalid connection state %d", i, int(s))
		}
	}
	m.states = append(m.states[:0], st.States...)
	m.inOutage = st.InOutage
	m.lastKey = st.LastKey
	m.rebuildIncremental()
	m.diag, m.diagErr = nil, nil
	if m.inOutage {
		m.diag, m.diagErr = m.diagnose()
	}
	return nil
}

// rebuildIncremental reconstructs the incremental observation structures
// (path set, failed flags, counters) from the connection states. Restored
// monitors lose the original first-report order, so reporting paths are
// re-added in connection-index order — the diagnosis is insensitive to
// path order (consistency is a set property), which the incremental
// equivalence tests pin.
func (m *Monitor) rebuildIncremental() {
	m.ps = monitor.NewPathSet(m.numNodes)
	m.unobservedOK = false
	m.failed = m.failed[:0]
	m.downTotal = 0
	for v := 0; v < m.numNodes; v++ {
		m.upCount[v] = 0
		m.downCount[v] = 0
	}
	for i := range m.pos {
		m.pos[i] = -1
	}
	for i, s := range m.states {
		if s == StateUnknown {
			continue
		}
		m.applyTransition(i, StateUnknown, s == StateUp)
	}
}
