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
// window, trace ring, stale-diagnosis cache, and tenant-labeled metrics.
// Tenants never share mutable state, so requests for different scenarios
// only meet at the sharded registry lookup and the bounded worker pool.
//
// Lock order: ingestMu → the server's walMu (read) → the leaf locks (the
// monitor's own, the dedup window's, auditMu). A leaf lock is held only
// inside its own methods, and nothing takes these locks in the reverse
// order. The flags (draining, handoff, splice, lastGood) are atomics and
// take no lock.
type tenant struct {
	id     string
	mon    *monitord.Guarded
	conns  []Connection
	place  PlaceFunc
	revise ReviseFunc   // nil when the scenario cannot be revised
	dedup  *dedupWindow // nil when disabled
	ring   *trace.Ring  // nil when disabled
	// spec is the scenario document the tenant was built from.
	spec []byte

	// diagnose recomputes the rolling diagnosis: mon.Diagnosis, or a slow
	// or failing stand-in a test installs.
	diagnose func() (*tomography.Diagnosis, error)

	// lastGood is the latest successfully computed diagnosis, for the
	// stale-serving fallback; nil until there is one.
	lastGood atomic.Pointer[goodDiagnosis]

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

	// ingestMu serializes this tenant's observation batches in every
	// mode: dedup lookup, apply, WAL append and dedup store happen as one
	// step, so a batch is applied once however many deliveries race, and
	// log order equals apply order. Migration fences and network
	// replacements take it too.
	ingestMu sync.Mutex

	// Diagnosis audit ledger (WAL mode only): the retained tail of
	// emitted events, each pinned to its WAL record's sequence number and
	// chain hash, plus a total count of everything ever emitted.
	auditMu    sync.Mutex
	audit      []auditEvent
	auditTotal int

	// Tenant-labeled series. The label value may be the shared "other"
	// bucket once the cardinality cap is reached.
	obsIngested *metrics.Counter
	outage      *metrics.Gauge
	requests    *metrics.Counter
}

// beginDrain marks the tenant draining; it returns false if another
// remover got there first.
func (t *tenant) beginDrain() bool { return t.draining.CompareAndSwap(false, true) }

// auditRetain bounds the in-memory audit tail per tenant; the full
// ledger lives in the WAL (and its snapshots' audit_total counters).
const auditRetain = 1024

// addAudit appends one diagnosis event to the audit ledger, evicting the
// oldest retained entry beyond the cap.
func (t *tenant) addAudit(e auditEvent) {
	t.auditMu.Lock()
	t.audit = append(t.audit, e)
	if len(t.audit) > auditRetain {
		copy(t.audit, t.audit[len(t.audit)-auditRetain:])
		t.audit = t.audit[:auditRetain]
	}
	t.auditTotal++
	t.auditMu.Unlock()
}

// auditSnapshot copies the retained audit tail (the newest limit entries
// when limit > 0) and the all-time event count.
func (t *tenant) auditSnapshot(limit int) ([]auditEvent, int) {
	t.auditMu.Lock()
	defer t.auditMu.Unlock()
	events := t.audit
	if limit > 0 && len(events) > limit {
		events = events[len(events)-limit:]
	}
	return append([]auditEvent(nil), events...), t.auditTotal
}

// restoreAudit replaces the ledger with a recovered one (boot replay).
func (t *tenant) restoreAudit(events []auditEvent, total int) {
	t.auditMu.Lock()
	t.audit = append([]auditEvent(nil), events...)
	t.auditTotal = total
	t.auditMu.Unlock()
}

// goodDiagnosis is a successfully computed diagnosis and when it was
// computed, stored as one value so a reader never sees one without the
// other.
type goodDiagnosis struct {
	diag *diagnosisJSON
	at   time.Time
}

// recordGoodDiagnosis remembers the latest successfully computed
// diagnosis for the stale-serving fallback.
func (t *tenant) recordGoodDiagnosis(d *diagnosisJSON) {
	t.lastGood.Store(&goodDiagnosis{diag: d, at: time.Now()})
}

// recordEmitted remembers the last diagnosis a batch's events carry:
// every diagnosis the daemon emits is by construction fresh and good.
func (t *tenant) recordEmitted(diags []*diagnosisJSON) {
	for i := len(diags) - 1; i >= 0; i-- {
		if diags[i] != nil {
			t.recordGoodDiagnosis(diags[i])
			return
		}
	}
}

// lastGoodDiagnosis returns the remembered diagnosis and its age.
func (t *tenant) lastGoodDiagnosis() (*diagnosisJSON, time.Duration, bool) {
	g := t.lastGood.Load()
	if g == nil {
		return nil, 0, false
	}
	return g.diag, time.Since(g.at), true
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
	core, err := monitord.New(tc.NumNodes, k, tc.Paths)
	if err != nil {
		return nil, fmt.Errorf("server: scenario %s: %w", id, err)
	}
	label := s.labeler.Value(id)
	t := &tenant{
		id:     id,
		mon:    monitord.NewGuarded(core),
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
	t.diagnose = t.mon.Diagnosis
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
	if err := s.addTenant(t); err != nil {
		t.mon.Close()
		return err
	}
	if persist && s.wlog != nil {
		// Append-before-ack: the create must be durable in the log
		// before the 201 goes out.
		if err := s.walAppendScenario(wal.TypeScenarioCreate,
			walScenarioCreate{ID: id, Spec: t.spec}); err != nil {
			s.removeTenantState(t)
			t.mon.Close()
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
		s.dedupGauge.Add(-float64(t.dedup.size()))
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
	s.removeTenantState(t)
	var logErr error
	if s.wlog != nil {
		logErr = s.walAppendScenario(wal.TypeScenarioDelete, walScenarioDelete{ID: id})
	}
	// Close the scenario's monitor last: WAL compaction may still export
	// its state while the delete record is being appended, and after
	// Close a straggling observation fails with monitord.ErrClosed
	// instead of landing in a deleted scenario.
	t.mon.Close()
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
