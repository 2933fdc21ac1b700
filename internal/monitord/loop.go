package monitord

import (
	"fmt"
	"sync"

	"repro/internal/tomography"
)

// ErrClosed is returned by Loop operations after Close: the scenario the
// loop served has been deleted, so late observations have nowhere to go.
var ErrClosed = fmt.Errorf("monitord: monitor loop closed")

// Loop wraps a Monitor behind a per-scenario single-writer event loop:
// one goroutine owns the Monitor and applies commands in arrival order,
// so the core never needs a lock and writers never contend on a mutex —
// they queue.
//
// All operations are synchronous from the caller's point of view
// (command in, reply out) and the loop serializes them, so a ReportBatch
// is atomic: it never interleaves with another batch or a Snapshot. Commands and their reply channels are
// pooled, so a steady-state round-trip allocates nothing.
//
// After Close every operation fails with ErrClosed (or returns a zero
// value for error-free reads); the loop goroutine exits, so deleting a
// scenario cannot leak its monitor goroutine.
type Loop struct {
	numConns int

	cmds chan *loopCmd
	stop chan struct{} // closed by Close
	done chan struct{} // closed when the goroutine has exited

	closeOnce sync.Once
	pool      sync.Pool
}

// loopOp selects the Monitor operation a command performs.
type loopOp int

const (
	opReportBatch loopOp = iota + 1
	opDiagnosis
	opSnapshot
	opInOutage
	opExportState
	opRestoreState
	opVerify
)

// loopCmd is one pooled command envelope. The reply channel has capacity
// one and is reused across round-trips; the loop goroutine is the only
// sender and the issuing caller the only receiver, so a reply can never
// be consumed by the wrong request.
type loopCmd struct {
	op    loopOp
	t     float64
	conns []int
	ups   []bool
	state State
	reply chan loopReply
}

// Snapshot is a consistent point-in-time view of the daemon state.
type Snapshot struct {
	InOutage bool
	States   []ConnState
}

// loopReply carries every result shape a command can produce.
type loopReply struct {
	events []Event
	diag   *tomography.Diagnosis
	snap   Snapshot
	state  State
	err    error
}

// NewLoop starts the event loop that owns m. The caller must not use m
// directly afterwards, and must Close the loop when the scenario goes
// away.
func NewLoop(m *Monitor) *Loop {
	l := &Loop{
		numConns: m.NumConnections(),
		cmds:     make(chan *loopCmd),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
	l.pool.New = func() any {
		return &loopCmd{reply: make(chan loopReply, 1)}
	}
	go l.run(m)
	return l
}

// run is the single writer: it owns m exclusively until Close.
func (l *Loop) run(m *Monitor) {
	defer close(l.done)
	for {
		select {
		case <-l.stop:
			return
		case cmd := <-l.cmds:
			cmd.reply <- l.apply(m, cmd)
		}
	}
}

// apply executes one command against the owned monitor.
func (l *Loop) apply(m *Monitor, cmd *loopCmd) loopReply {
	switch cmd.op {
	case opReportBatch:
		var events []Event
		for i, conn := range cmd.conns {
			evs, err := m.Report(cmd.t, conn, cmd.ups[i])
			events = append(events, evs...)
			if err != nil {
				return loopReply{events: events, err: err}
			}
		}
		return loopReply{events: events}
	case opDiagnosis:
		d, err := m.Diagnosis()
		return loopReply{diag: d, err: err}
	case opSnapshot:
		return loopReply{snap: Snapshot{
			InOutage: m.InOutage(),
			States:   append([]ConnState(nil), m.states...),
		}}
	case opInOutage:
		// Outage-flag-only read: the ingest path refreshes gauges per
		// batch, so skip the Snapshot states copy.
		return loopReply{snap: Snapshot{InOutage: m.InOutage()}}
	case opExportState:
		return loopReply{state: m.ExportState()}
	case opRestoreState:
		return loopReply{err: m.RestoreState(cmd.state)}
	case opVerify:
		return loopReply{err: m.VerifyIncremental()}
	default:
		return loopReply{err: fmt.Errorf("monitord: unknown loop op %d", int(cmd.op))}
	}
}

// roundTrip submits cmd and waits for its reply; after Close it returns
// ErrClosed without blocking. The command channel is unbuffered, so a
// successful send means the loop goroutine holds the command and will
// reply exactly once.
func (l *Loop) roundTrip(cmd *loopCmd) (loopReply, error) {
	select {
	case l.cmds <- cmd:
		return <-cmd.reply, nil
	case <-l.done:
		return loopReply{}, ErrClosed
	}
}

// getCmd checks a command envelope out of the pool.
func (l *Loop) getCmd(op loopOp) *loopCmd {
	cmd := l.pool.Get().(*loopCmd)
	cmd.op = op
	return cmd
}

// putCmd clears caller data and returns the envelope to the pool.
func (l *Loop) putCmd(cmd *loopCmd) {
	cmd.conns = nil
	cmd.ups = nil
	cmd.state = State{}
	l.pool.Put(cmd)
}

// ReportBatch feeds several observations at the same virtual time and
// returns the concatenated events. A conns/ups length mismatch rejects
// the whole batch before anything is applied; on a bad connection index
// the prefix already applied stays applied, and its events are returned
// alongside the error. The batch is
// serialized by the event loop, so no other operation interleaves.
//
// The conns and ups slices are only read until ReportBatch returns, so
// callers may reuse them (the ingest path feeds pooled scratch directly).
func (l *Loop) ReportBatch(t float64, conns []int, ups []bool) ([]Event, error) {
	if len(conns) != len(ups) {
		return nil, fmt.Errorf("monitord: batch has %d connections but %d states", len(conns), len(ups))
	}
	cmd := l.getCmd(opReportBatch)
	cmd.t, cmd.conns, cmd.ups = t, conns, ups
	r, err := l.roundTrip(cmd)
	if err != nil {
		return nil, err
	}
	l.putCmd(cmd)
	return r.events, r.err
}

// Report feeds one observation; see Monitor.Report.
func (l *Loop) Report(t float64, conn int, up bool) ([]Event, error) {
	return l.ReportBatch(t, []int{conn}, []bool{up})
}

// Diagnosis returns the rolling diagnosis; see Monitor.Diagnosis.
func (l *Loop) Diagnosis() (*tomography.Diagnosis, error) {
	cmd := l.getCmd(opDiagnosis)
	r, err := l.roundTrip(cmd)
	if err != nil {
		return nil, err
	}
	l.putCmd(cmd)
	return r.diag, r.err
}

// NumConnections returns the number of monitored connections. The count
// is fixed at construction, so this never blocks on the loop.
func (l *Loop) NumConnections() int { return l.numConns }

// Snapshot returns the outage flag and every connection state as one
// serialized read; after Close it returns the zero Snapshot.
func (l *Loop) Snapshot() Snapshot {
	cmd := l.getCmd(opSnapshot)
	r, err := l.roundTrip(cmd)
	if err != nil {
		return Snapshot{}
	}
	l.putCmd(cmd)
	return r.snap
}

// InOutage reports whether any monitored connection is currently down —
// the same flag Snapshot carries, without copying the per-connection
// states. After Close it returns false.
func (l *Loop) InOutage() bool {
	cmd := l.getCmd(opInOutage)
	r, err := l.roundTrip(cmd)
	if err != nil {
		return false
	}
	l.putCmd(cmd)
	return r.snap.InOutage
}

// ExportState captures the monitor's replayable state; see
// Monitor.ExportState. After Close it returns the zero State and false.
func (l *Loop) ExportState() (State, bool) {
	cmd := l.getCmd(opExportState)
	r, err := l.roundTrip(cmd)
	if err != nil {
		return State{}, false
	}
	l.putCmd(cmd)
	return r.state, true
}

// RestoreState overwrites the monitor's state; see Monitor.RestoreState.
func (l *Loop) RestoreState(st State) error {
	cmd := l.getCmd(opRestoreState)
	cmd.state = st
	r, err := l.roundTrip(cmd)
	if err != nil {
		return err
	}
	l.putCmd(cmd)
	return r.err
}

// VerifyIncremental cross-checks the incremental diagnosis against a
// from-scratch recompute; see Monitor.VerifyIncremental. Test seam for
// the chaos soak and crash matrix.
func (l *Loop) VerifyIncremental() error {
	cmd := l.getCmd(opVerify)
	r, err := l.roundTrip(cmd)
	if err != nil {
		return err
	}
	l.putCmd(cmd)
	return r.err
}

// Close stops the event loop and waits for its goroutine to exit.
// Subsequent operations return ErrClosed (or zero values). Close is
// idempotent and safe to call concurrently.
func (l *Loop) Close() {
	l.closeOnce.Do(func() { close(l.stop) })
	<-l.done
}
