package monitord

import (
	"errors"
	"sync"

	"repro/internal/tomography"
)

// ErrClosed is returned by Guarded's methods after Close: the scenario
// the monitor served has been deleted, so late observations have nowhere
// to go.
var ErrClosed = errors.New("monitord: monitor closed")

// Guarded is a Monitor safe for concurrent use: every method holds one
// mutex for the whole call, so a ReportBatch is atomic — it never
// interleaves with another batch or a Snapshot. The mutex is a leaf
// lock: it is held only inside these methods, never while taking
// another lock or calling out.
//
// After Close every method fails with ErrClosed (or returns a zero value
// for error-free reads), so an observation that races a scenario's
// deletion cannot land in the deleted scenario.
type Guarded struct {
	mu     sync.Mutex
	closed bool
	m      *Monitor
}

// NewGuarded wraps m. The caller must not use m directly afterwards.
func NewGuarded(m *Monitor) *Guarded { return &Guarded{m: m} }

// Snapshot is a consistent point-in-time view of the daemon state.
type Snapshot struct {
	InOutage bool
	States   []ConnState
	// Diagnosis and DiagnosisErr are what Monitor.Diagnosis answers for
	// the same state while InOutage; both are nil outside an outage. The
	// diagnosis is shared and must not be modified.
	Diagnosis    *tomography.Diagnosis
	DiagnosisErr error
}

// ReportBatch applies a batch; see Monitor.ReportBatch. The conns and
// ups slices are only read until ReportBatch returns, so callers may
// reuse them.
func (g *Guarded) ReportBatch(t float64, conns []int, ups []bool) ([]Event, error) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return nil, ErrClosed
	}
	return g.m.ReportBatch(t, conns, ups)
}

// NumConnections returns the number of monitored connections. The count
// is fixed at construction, so this takes no lock and survives Close.
func (g *Guarded) NumConnections() int { return g.m.NumConnections() }

// Snapshot returns the outage flag, every connection state and the
// diagnosis of that state as one read; after Close it returns the zero
// Snapshot.
func (g *Guarded) Snapshot() Snapshot {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return Snapshot{}
	}
	return Snapshot{
		InOutage:     g.m.inOutage,
		States:       append([]ConnState(nil), g.m.states...),
		Diagnosis:    g.m.diag,
		DiagnosisErr: g.m.diagErr,
	}
}

// InOutage reports whether any monitored connection is currently down —
// the same flag Snapshot carries, without copying the per-connection
// states. After Close it returns false.
func (g *Guarded) InOutage() bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	return !g.closed && g.m.InOutage()
}

// ExportState captures the monitor's replayable state; see
// Monitor.ExportState. After Close it returns the zero State and false.
func (g *Guarded) ExportState() (State, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return State{}, false
	}
	return g.m.ExportState(), true
}

// RestoreState overwrites the monitor's state; see Monitor.RestoreState.
func (g *Guarded) RestoreState(st State) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	return g.m.RestoreState(st)
}

// VerifyIncremental cross-checks the kept diagnosis against a
// from-scratch recompute; see Monitor.VerifyIncremental. Test seam for
// the chaos soak and crash matrix.
func (g *Guarded) VerifyIncremental() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.closed {
		return ErrClosed
	}
	return g.m.VerifyIncremental()
}

// Close waits out an in-flight call and closes the monitor: later calls
// return ErrClosed (or zero values). Close is idempotent and safe to
// call concurrently.
func (g *Guarded) Close() {
	g.mu.Lock()
	g.closed = true
	g.mu.Unlock()
}
