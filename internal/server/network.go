package server

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wal"
)

// ReviseFunc is one tenant's reviser: a network-change request body in
// (the facade owns its format, like BuildFunc's spec), the revised
// scenario document and the tenant built from it out. It belongs to the
// tenant it revises, bound to the network and document that tenant was
// built from, so it can start from that routed network instead of
// decoding the stored document. The returned TenantConfig must be exactly
// what BuildScenario builds from the returned document: the document is
// what the write-ahead log records, and boot replay rebuilds the scenario
// from it, so the live tenant and the recovered one must not differ.
// Returning the config lets the reviser hand over the network it already
// routed instead of the server building it a second time. The server
// calls it at most once per accepted PUT /v1/scenarios/{id}/network.
type ReviseFunc func(change []byte) ([]byte, *TenantConfig, error)

// errScenarioBusy marks a network replacement refused because the
// scenario is mid-drain or mid-replacement; the HTTP layer answers 409.
var errScenarioBusy = errors.New("server: scenario is being modified")

// serveScenarioNetwork handles PUT /v1/scenarios/{id}/network: replace
// the scenario's network in place, keeping its identity, dedup window,
// and audit ledger.
func (s *Server) serveScenarioNetwork(t *tenant, w http.ResponseWriter, r *http.Request) {
	if t.revise == nil {
		writeError(w, http.StatusNotImplemented, "network replacement not configured")
		return
	}
	if s.rejectReadOnly(w) {
		return
	}
	const maxSpec = 1 << 20
	change, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSpec))
	if err != nil {
		writeBodyError(w, "network change", err)
		return
	}
	nt, err := s.replaceNetwork(trace.FromContext(r.Context()), t, change)
	switch {
	case errors.Is(err, errScenarioBusy):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, errWALUnavailable):
		respondReadOnly(w)
	case errors.Is(err, registry.ErrNotFound):
		writeError(w, http.StatusNotFound, "scenario %q not found", t.id)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, s.scenarioInfo(nt))
	}
}

// ReplaceScenarioNetwork revises a hosted scenario's network in place
// through the tenant's own ReviseFunc: the scenario keeps its ID, dedup
// window, and audit ledger while monitor state restarts against the new
// topology. Errors: registry.ErrNotFound, errScenarioBusy surfaced as a
// conflict, ErrBadSpec-wrapped revise failures (building the revised
// tenant is part of the revision), or a persistence failure (in which
// case the old network keeps serving — a replacement either fully
// survives a restart or changes nothing).
func (s *Server) ReplaceScenarioNetwork(id string, change []byte) error {
	if s.readOnly.Load() {
		return errWALUnavailable
	}
	t, ok := s.tenants.Get(id)
	if !ok {
		return fmt.Errorf("%w: %q", registry.ErrNotFound, id)
	}
	if t.revise == nil {
		return fmt.Errorf("server: scenario %q: network replacement not configured (no reviser)", id)
	}
	if t.draining.Load() {
		return fmt.Errorf("%w: %q", errScenarioBusy, id)
	}
	_, err := s.replaceNetwork(nil, t, change)
	return err
}

// replaceNetwork swaps old's registry slot for the tenant old's own
// reviser built from the revised document. Sequencing is what makes it
// safe:
//
//   - beginDrain on the old tenant is the concurrency guard: a racing
//     replacement or removal loses and reports a conflict, and once the
//     swap lands the orphaned old tenant stays draining forever.
//   - The new tenant is published with its ingestMu held until the
//     update record is logged (see tenant), so no batch on the new
//     network is applied or logged ahead of that record.
//   - The state adoption, the swap, the update record, and closing the
//     old tenant all happen under old.ingestMu: an in-flight ingest that
//     already resolved the old tenant pointer either fully commits
//     (apply, log append, audit entry) before the adoption copies the
//     dedup window and audit ledger, or finds the old tenant closed after
//     the swap — the WAL never records an observation for the old
//     network after the update, and the new tenant carries every event
//     logged before it, so boot replay rebuilds exactly the live state.
//   - On a persistence failure the swap is rolled back and the old
//     tenant un-drained, so served state never runs ahead of durable
//     state.
//
// The revise call, which includes building the revised tenant, is timed
// as a stage of sp, which may be nil.
func (s *Server) replaceNetwork(sp *trace.Span, old *tenant, change []byte) (*tenant, error) {
	st := sp.StartStage("revise")
	newSpec, tc, err := old.revise(change)
	st.End()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	nt, err := s.newTenant(old.id, tc, append([]byte(nil), newSpec...))
	if err != nil {
		return nil, err
	}
	if !old.beginDrain() {
		return nil, fmt.Errorf("%w: %q", errScenarioBusy, old.id)
	}

	nt.ingestMu.Lock()
	defer nt.ingestMu.Unlock()
	old.ingestMu.Lock()
	defer old.ingestMu.Unlock()
	adoptTenantState(old, nt)
	if _, err := s.tenants.Swap(old.id, nt); err != nil {
		return nil, err
	}
	if s.wlog != nil {
		if perr := s.walAppendScenario(wal.TypeScenarioUpdate, walScenarioUpdate{ID: old.id, Spec: nt.spec}); perr != nil {
			if _, err := s.tenants.Swap(old.id, old); err != nil {
				// The slot vanished mid-rollback; nothing to restore.
				s.logger.Error("network replacement rollback lost the scenario", "scenario", old.id, "error", err)
			}
			old.draining.Store(false)
			nt.close()
			return nil, perr
		}
	}
	s.connsGauge.Add(float64(len(nt.conns) - len(old.conns)))
	s.setOutageGauges(nt)
	old.close()
	s.logger.Info("scenario network replaced", "scenario", old.id,
		"connections", len(nt.conns), "was_connections", len(old.conns))
	return nt, nil
}

// adoptTenantState moves the surviving per-scenario state from the
// tenant being replaced onto its successor, which is not yet published:
// the idempotent-ingest window (so a retried batch from before the
// replacement still replays its original response) and the diagnosis
// audit ledger (an append-only history of the scenario, not of one
// network). Monitor state and the last good diagnosis deliberately
// restart: they describe paths that no longer exist. The window moves
// by pointer: it is written only under a tenant's ingestMu, which
// replaceNetwork holds on both tenants until one of them is closed.
func adoptTenantState(old, nt *tenant) {
	old.mu.Lock()
	nt.dedup = old.dedup
	nt.audit = append([]auditEntry(nil), old.audit...)
	nt.auditTotal = old.auditTotal
	old.mu.Unlock()
}

// replayScenarioUpdate re-applies one TypeScenarioUpdate record at boot:
// the same rebuild-adopt-swap as the live path, minus locks (recovery is
// single-threaded, before the handler exists) and minus the durability
// append (the record being replayed is the durability).
func (s *Server) replayScenarioUpdate(seq uint64, p walScenarioUpdate) {
	old, ok := s.tenants.Get(p.ID)
	if !ok {
		s.logger.Warn("WAL replay: network update for unknown scenario skipped", "seq", seq, "scenario", p.ID)
		return
	}
	tc, err := s.build(p.ID, p.Spec)
	if err != nil {
		s.logger.Warn("WAL replay: network update build failed", "seq", seq, "scenario", p.ID, "error", err)
		return
	}
	nt, err := s.newTenant(p.ID, tc, append([]byte(nil), p.Spec...))
	if err != nil {
		s.logger.Warn("WAL replay: network update failed", "seq", seq, "scenario", p.ID, "error", err)
		return
	}
	adoptTenantState(old, nt)
	if _, err := s.tenants.Swap(p.ID, nt); err != nil {
		s.logger.Warn("WAL replay: network update swap failed", "seq", seq, "scenario", p.ID, "error", err)
		return
	}
	s.connsGauge.Add(float64(len(nt.conns) - len(old.conns)))
	s.setOutageGauges(nt)
	old.close()
}
