package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/bitset"
	"repro/internal/metrics"
	"repro/internal/monitord"
	"repro/internal/registry"
	"repro/internal/tomography"
	"repro/internal/trace"
	"repro/internal/wal"
)

// DefaultScenario is the scenario the legacy single-scenario routes
// (/v1/observations, /v1/diagnosis, ...) operate on; they are aliases of
// the same routes under /v1/scenarios/default/.... Config.DefaultSpec
// seeds it at boot, and it is otherwise an ordinary scenario.
const DefaultScenario = "default"

// ErrBadSpec wraps scenario-spec build failures so the HTTP layer can
// distinguish a malformed document (422) from a malformed ID (400).
var ErrBadSpec = fmt.Errorf("server: invalid scenario spec")

// TenantConfig is the per-scenario monitoring state a BuildFunc produces
// from a scenario document.
type TenantConfig struct {
	// NumNodes is the scenario network's node universe.
	NumNodes int
	// K is the scenario's failure budget (≤ 0 means the server default).
	K int
	// Paths are the measurement paths of the deployed placement.
	Paths []*bitset.Set
	// Connections is index-aligned metadata for Paths.
	Connections []Connection
	// Place runs this scenario's placement jobs; must be safe for
	// concurrent use.
	Place PlaceFunc
	// Revise revises this scenario's network in place, enabling
	// PUT /v1/scenarios/{id}/network; nil answers 501. See ReviseFunc.
	Revise ReviseFunc
}

// BuildFunc turns a stored scenario document (an opaque JSON blob owned
// by the facade) into the scenario's monitoring state. It must be pure
// with respect to the server: the same document always builds an
// equivalent tenant, which is what makes write-ahead log replay sound.
type BuildFunc func(id string, spec []byte) (*TenantConfig, error)

// tenant is one scenario's isolated state bundle: its own monitor, dedup
// window, trace ring, audit ledger, last good diagnosis, and
// tenant-labeled metrics. Tenants never share mutable state, so requests
// for different scenarios only meet at the sharded registry lookup and
// the bounded worker pool.
//
// Two locks, one job each. ingestMu is the ordering point: it sequences
// the tenant's batches, keeps their WAL order equal to their apply order,
// and is the migration fence; it is held across a batch's WAL append. mu
// guards the tenant's mutable state (the fields below it) and is held
// only to apply a batch or to copy state out, never across an fsync or
// while taking another of the server's locks. Lock order: ingestMu → the
// server's walMu (read) → mu. The flags (draining, handoff, splice) are
// atomics and take no lock.
//
// Publication: createScenario, replaceNetwork and adoptScenario make a
// tenant visible with its ingestMu already held, and release it only once
// the create, update or migrate-in record that defines the tenant is
// logged (or the tenant is rolled back and closed), so no batch on the
// tenant can be applied or logged ahead of that record.
type tenant struct {
	id     string
	conns  []Connection
	place  PlaceFunc
	revise ReviseFunc  // nil when the scenario cannot be revised
	ring   *trace.Ring // nil when disabled
	// spec is the scenario document the tenant was built from.
	spec []byte

	// draining is set by whoever claims the tenant to remove, migrate or
	// replace it (beginDrain), and cleared only when a migration or a
	// replacement rolls back; requests arriving while it is set get a
	// conflict.
	draining atomic.Bool

	// handoff, when non-nil, is the live migration currently moving this
	// scenario to another node. Requests that catch the tenant
	// mid-handoff wait on it instead of racing the move (cluster mode
	// only; see internal/server/cluster.go). A successful migration
	// leaves it set: the tenant is gone from the registry, and
	// stragglers still holding the pointer follow the handoff's target.
	handoff atomic.Pointer[handoff]

	// splice, when non-nil, records where this scenario's audit hash
	// chain continues from: the source node's log head at the migration
	// fence. Nil for scenarios that have lived on this node since
	// creation.
	splice atomic.Pointer[auditSplice]

	ingestMu sync.Mutex
	// unobserved interns the unobserved lists of the events the tenant
	// keeps. Guarded by ingestMu; boot recovery and adoption use it before
	// the tenant serves.
	unobserved unobservedSet

	mu sync.Mutex
	// closed is set once the scenario is removed, migrated away or
	// replaced, or the server shuts down: a request still holding the
	// tenant gets a conflict, and compaction skips it.
	closed bool
	mon    *monitord.Monitor
	// dedup is nil when disabled. The pointer is fixed once the tenant is
	// published; mu guards the window behind it.
	dedup *dedupWindow
	// audit is the diagnosis audit ledger (WAL mode only): the retained
	// tail of emitted events, each pinned to its WAL record's sequence
	// number and chain hash and sharing its compact form with the dedup
	// window; auditTotal counts everything ever emitted.
	audit      []auditEntry
	auditTotal int
	// lastGood is the diagnosis the monitor kept after the last applied
	// batch that left a localizable outage, and lastGoodAt that batch's
	// wall time: what an inconsistent state serves as stale. Nil until
	// there is one.
	lastGood   *tomography.Diagnosis
	lastGoodAt time.Time

	// Tenant-labeled series. The label value may be the shared "other"
	// bucket once the cardinality cap is reached.
	obsIngested *metrics.Counter
	outage      *metrics.Gauge
	requests    *metrics.Counter
}

// beginDrain marks the tenant draining; it returns false if another
// remover got there first.
func (t *tenant) beginDrain() bool { return t.draining.CompareAndSwap(false, true) }

// close marks the tenant closed; idempotent.
func (t *tenant) close() {
	t.mu.Lock()
	t.closed = true
	t.mu.Unlock()
}

// inOutage reports whether the scenario has a reporting connection down;
// false once the tenant is closed.
func (t *tenant) inOutage() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return !t.closed && t.mon.InOutage()
}

// keepGood makes the monitor's kept diagnosis the last good one when the
// state just applied is an outage the monitor localizes. Caller holds mu.
func (t *tenant) keepGood() {
	if !t.mon.InOutage() {
		return
	}
	if d, err := t.mon.Diagnosis(); err == nil {
		t.lastGood, t.lastGoodAt = d, time.Now()
	}
}

// auditRetain bounds the in-memory audit tail per tenant; the full
// ledger lives in the WAL (and its snapshots' audit_total counters).
const auditRetain = 1024

// addAudit appends one diagnosis event to the audit ledger, evicting the
// oldest retained entry beyond the cap. Caller holds mu.
func (t *tenant) addAudit(e auditEntry) {
	t.audit = append(t.audit, e)
	if len(t.audit) > auditRetain {
		copy(t.audit, t.audit[len(t.audit)-auditRetain:])
		t.audit = t.audit[:auditRetain]
	}
	t.auditTotal++
}

// exportState copies the tenant's replayable state (without the splice),
// or reports false once the tenant is closed. Callers hold ingestMu or
// the server's walMu exclusively, so the copy matches the log position.
// The kept events are immutable, so they are rendered after mu is
// released.
func (t *tenant) exportState() (*walTenantState, bool) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false
	}
	ts := &walTenantState{
		Spec:       t.spec,
		Monitor:    t.mon.ExportState(),
		AuditTotal: t.auditTotal,
	}
	audit := append([]auditEntry(nil), t.audit...)
	var window []dedupItem
	if t.dedup != nil {
		window = t.dedup.entries()
	}
	t.mu.Unlock()
	ts.Audit = wireAudit(audit)
	ts.Dedup = exportDedup(window)
	return ts, true
}

// newTenant assembles one scenario's state bundle from its config.
func (s *Server) newTenant(id string, tc *TenantConfig, spec []byte) (*tenant, error) {
	if tc.Place == nil {
		return nil, fmt.Errorf("server: scenario %s: no place function", id)
	}
	if len(tc.Paths) != len(tc.Connections) {
		return nil, fmt.Errorf("server: scenario %s: %d paths for %d connections", id, len(tc.Paths), len(tc.Connections))
	}
	k := tc.K
	if k <= 0 {
		k = s.defaultK
	}
	mon, err := monitord.New(tc.NumNodes, k, tc.Paths)
	if err != nil {
		return nil, fmt.Errorf("server: scenario %s: %w", id, err)
	}
	label := s.labeler.Value(id)
	t := &tenant{
		id:     id,
		mon:    mon,
		conns:  append([]Connection(nil), tc.Connections...),
		place:  tc.Place,
		revise: tc.Revise,
		spec:   spec,
		obsIngested: s.registry.Counter("placemond_tenant_observations_ingested_total",
			"Connection state reports accepted, by scenario (capped cardinality; overflow in tenant=\"other\").",
			"tenant", label),
		outage: s.registry.Gauge("placemond_tenant_outage",
			"1 while the scenario has a reporting connection down, else 0 (capped cardinality).",
			"tenant", label),
		requests: s.registry.Counter("placemond_tenant_requests_total",
			"Tenant-scoped API requests, by scenario (capped cardinality).",
			"tenant", label),
	}
	if s.dedupSize > 0 {
		t.dedup = newDedupWindow(s.dedupSize)
	}
	if s.traceBuf > 0 {
		t.ring = trace.NewRing(s.traceBuf)
	}
	return t, nil
}

// addTenant registers t, keeping the scenario-count and connection-count
// gauges current.
func (s *Server) addTenant(t *tenant) error {
	if err := s.tenants.Put(t.id, t); err != nil {
		return err
	}
	s.scenarioGauge.Set(float64(s.tenants.Len()))
	s.connsGauge.Add(float64(len(t.conns)))
	return nil
}

// CreateScenario builds the scenario described by spec (via the
// configured BuildFunc), registers it, and, when a write-ahead log is
// configured, logs the document before returning. Errors:
// registry.ErrExists, registry.ErrFull, an ID validation error,
// ErrBadSpec-wrapped build failures, or a log append failure (in which
// case the scenario is rolled back — a create either fully survives a
// restart or fails).
func (s *Server) CreateScenario(id string, spec []byte) error {
	return s.createScenario(id, spec, true)
}

func (s *Server) createScenario(id string, spec []byte, persist bool) error {
	if err := registry.ValidateID(id); err != nil {
		return err
	}
	if persist && s.cluster != nil {
		// The HTTP layer routes non-owned creates to the owner before it
		// gets here; this guard catches direct API callers so a scenario
		// can never be created on a node the ring does not point at.
		if owner := s.ownerOf(id); owner.ID != s.cluster.self() {
			return fmt.Errorf("%w: %q belongs to node %s", errNotOwner, id, owner.ID)
		}
	}
	tc, err := s.build(id, spec)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	t, err := s.newTenant(id, tc, append([]byte(nil), spec...))
	if err != nil {
		return err
	}
	// Published with its ingest lock held until the create is logged
	// (see tenant).
	t.ingestMu.Lock()
	defer t.ingestMu.Unlock()
	if err := s.addTenant(t); err != nil {
		return err
	}
	if persist && s.wlog != nil {
		// Append-before-ack: the create must be durable in the log
		// before the 201 goes out.
		if err := s.walAppendScenario(wal.TypeScenarioCreate,
			walScenarioCreate{ID: id, Spec: t.spec}); err != nil {
			s.removeTenantState(t)
			t.close()
			return err
		}
	}
	s.logger.Info("scenario created", "scenario", id,
		"connections", len(t.conns), "persisted", persist)
	return nil
}

// removeTenantState unregisters t and rolls the aggregate gauges back.
func (s *Server) removeTenantState(t *tenant) {
	if _, ok := s.tenants.Delete(t.id); !ok {
		return
	}
	s.scenarioGauge.Set(float64(s.tenants.Len()))
	s.connsGauge.Add(-float64(len(t.conns)))
	if s.dedupGauge != nil && t.dedup != nil {
		t.mu.Lock()
		cached := t.dedup.size()
		t.mu.Unlock()
		s.dedupGauge.Add(-float64(cached))
	}
}

// RemoveScenario drains and deletes a scenario: new requests for it are
// rejected immediately, in-flight placement jobs get up to the drain
// timeout (bounded further by ctx) to finish, and a delete record is
// logged so the scenario does not resurrect at the next boot.
func (s *Server) RemoveScenario(ctx context.Context, id string) error {
	t, ok := s.tenants.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", registry.ErrNotFound, id)
	}
	if !t.beginDrain() {
		// A concurrent remover owns the drain; to this caller the
		// scenario is already gone.
		return fmt.Errorf("%w: %q", registry.ErrNotFound, id)
	}
	dctx, cancel := context.WithTimeout(ctx, s.drainTimeout)
	defer cancel()
	drained := s.pool.waitIdle(dctx, id)
	// Under the ingest lock a batch on the scenario is either logged
	// before the delete record or finds the tenant closed, so none lands
	// in the log after it.
	t.ingestMu.Lock()
	s.removeTenantState(t)
	var logErr error
	if s.wlog != nil {
		logErr = s.walAppendScenario(wal.TypeScenarioDelete, walScenarioDelete{ID: id})
	}
	t.close()
	t.ingestMu.Unlock()
	s.logger.Info("scenario removed", "scenario", id,
		"drained", drained, "wal_error", logErr != nil)
	if logErr != nil {
		return fmt.Errorf("server: forget scenario %s: %w", id, logErr)
	}
	return nil
}

// ScenarioIDs returns the registered scenario IDs, sorted.
func (s *Server) ScenarioIDs() []string { return s.tenants.IDs() }

// Connections returns the monitored connections of hosted scenario id in
// ingest-index order, or nil when this node does not host it.
func (s *Server) Connections(id string) []Connection {
	t, ok := s.tenants.Get(id)
	if !ok {
		return nil
	}
	return append([]Connection(nil), t.conns...)
}
