package server

import (
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sort"
	"time"

	"repro/internal/monitord"
	"repro/internal/wal"
)

// WALConfig enables crash safety: every state-mutating operation —
// scenario create/delete, accepted observation batch (which carries the
// dedup-window entry), emitted diagnosis event — is appended to a
// write-ahead log before its HTTP response is acknowledged, and boot
// replays snapshot + tail to rebuild every tenant.
type WALConfig struct {
	// Dir is the log directory (segments + snapshots).
	Dir string
	// Sync is the append durability policy (default wal.SyncAlways).
	Sync wal.SyncMode
	// SegmentBytes overrides the segment rotation threshold
	// (0 = the log's 4 MiB default).
	SegmentBytes int64
	// CompactEvery is how many appended records trigger an automatic
	// background compaction folding live state into a snapshot
	// (default 4096; < 0 disables automatic compaction).
	CompactEvery int
	// FS overrides the log's filesystem — the crash-injection test seam.
	FS wal.FS
}

// errWALUnavailable marks mutations refused because a WAL write failed:
// the HTTP layer answers 503 with Placemond-Read-Only instead of a 4xx.
var errWALUnavailable = errors.New("server: write-ahead log unavailable")

// --- record payloads (JSON, opaque to internal/wal) ---

// walScenarioCreate is the TypeScenarioCreate payload.
type walScenarioCreate struct {
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec"`
}

// walScenarioDelete is the TypeScenarioDelete payload.
type walScenarioDelete struct {
	ID string `json:"id"`
}

// walScenarioUpdate is the TypeScenarioUpdate payload: the scenario's
// fully revised document after an in-place network replacement. Replay
// rebuilds the tenant from the document and adopts the old tenant's
// dedup window and audit ledger, exactly like the live path.
type walScenarioUpdate struct {
	ID   string          `json:"id"`
	Spec json.RawMessage `json:"spec"`
}

// walObservations is the TypeObservations payload: the accepted batch's
// inputs, not its outputs. Replaying the inputs through the monitor
// regenerates the events, the diagnosis, and the marshaled response
// bytes deterministically, which is what keeps post-crash dedup replays
// byte-exact without storing response bodies in the log.
type walObservations struct {
	Scenario string  `json:"scenario"`
	BatchID  string  `json:"batch_id,omitempty"`
	Time     float64 `json:"time"`
	Conns    []int   `json:"conns"`
	Ups      []bool  `json:"ups"`
}

// walDiagnosis is the TypeDiagnosis payload: one emitted monitoring
// event, the tamper-evident audit record of a localization decision.
type walDiagnosis struct {
	Scenario  string         `json:"scenario"`
	Time      float64        `json:"time"`
	Kind      string         `json:"kind"`
	Diagnosis *diagnosisJSON `json:"diagnosis,omitempty"`
}

// --- folded state (the compaction snapshot document) ---

// walState is the snapshot document compaction folds the live records
// into. json.Marshal sorts map keys, so the same logical state always
// produces the same bytes — the basis of the crash matrix's
// byte-identical assertion.
type walState struct {
	Scenarios map[string]*walTenantState `json:"scenarios"`
	// Relocations maps scenario ID → node it migrated to (cluster mode),
	// so a restarted source keeps pointing followers at the new owner
	// even after the migrate-out record is folded away.
	Relocations map[string]string `json:"relocations,omitempty"`
}

// walTenantState is one tenant's replayable state.
type walTenantState struct {
	// Spec is the scenario document. Only snapshots written by an older
	// placemond, for a default tenant it built from boot flags, lack one;
	// restoreWALState skips such entries.
	Spec json.RawMessage `json:"spec,omitempty"`
	// Monitor is the monitord core state.
	Monitor monitord.State `json:"monitor"`
	// Dedup is the idempotent-ingest window, oldest entry first.
	Dedup []dedupRecord `json:"dedup,omitempty"`
	// Audit is the retained tail of the diagnosis audit ledger;
	// AuditTotal counts every event ever appended.
	Audit      storedAudit `json:"audit,omitempty"`
	AuditTotal int         `json:"audit_total,omitempty"`
	// Splice, for a scenario adopted from another node, records the
	// source log's chain head at the migration fence — where this
	// scenario's audit chain verifiably continues from.
	Splice *auditSplice `json:"splice,omitempty"`
}

// buildWALState captures every tenant's replayable state. Callers must
// hold s.walMu exclusively (no append in flight), so the captured state
// matches the log position exactly.
func (s *Server) buildWALState() *walState {
	st := &walState{Scenarios: map[string]*walTenantState{}}
	s.tenants.Range(func(id string, t *tenant) bool {
		// A closed tenant is mid-removal, and its delete record follows
		// in the log, so it is skipped here.
		if ts, ok := t.exportState(); ok {
			ts.Splice = t.splice.Load()
			st.Scenarios[id] = ts
		}
		return true
	})
	if s.cluster != nil {
		if reloc := s.cluster.relocations(); len(reloc) > 0 {
			st.Relocations = reloc
		}
	}
	return st
}

// StateExport returns the server's replayable state as deterministic
// JSON — the same document compaction folds into snapshots. Two servers
// that ingested the same operation stream export identical bytes; the
// crash harness leans on that.
func (s *Server) StateExport() ([]byte, error) {
	s.walMu.Lock()
	defer s.walMu.Unlock()
	return json.Marshal(s.buildWALState())
}

// --- read-only degradation ---

// enterReadOnly flips the daemon into read-only mode after a WAL write
// failure (ENOSPC, I/O error): mutations answer 503 + Placemond-Read-Only
// while reads and placements keep serving. Degrade, don't die.
func (s *Server) enterReadOnly(err error) {
	if s.readOnly.CompareAndSwap(false, true) {
		if s.readOnlyGauge != nil {
			s.readOnlyGauge.Set(1)
		}
		s.logger.Error("WAL write failed; daemon is now read-only",
			"error", err, "wal_dir", s.wlog.Dir())
	}
}

// ReadOnly reports whether a WAL failure has frozen mutations.
func (s *Server) ReadOnly() bool { return s.readOnly.Load() }

// respondReadOnly answers a mutation refused by read-only mode.
func respondReadOnly(w http.ResponseWriter) {
	w.Header().Set("Placemond-Read-Only", "true")
	writeError(w, http.StatusServiceUnavailable,
		"daemon is read-only: write-ahead log unavailable")
}

// rejectReadOnly writes the 503 and reports true when mutations are
// frozen.
func (s *Server) rejectReadOnly(w http.ResponseWriter) bool {
	if !s.readOnly.Load() {
		return false
	}
	respondReadOnly(w)
	return true
}

// --- append paths ---

// walAppendIngest appends one accepted observation batch plus one
// diagnosis record per emitted event (evs, the wire form; kept, the same
// events as the ledger keeps them), durably, in one fsync. Called with
// t.ingestMu held and s.walMu read-locked; on failure the daemon goes
// read-only and the caller must not acknowledge the batch.
func (s *Server) walAppendIngest(t *tenant, batchID string, tm float64, conns []int, ups []bool, evs []eventJSON, kept []compactEvent) error {
	obsPayload, err := json.Marshal(walObservations{
		Scenario: t.id, BatchID: batchID, Time: tm, Conns: conns, Ups: ups,
	})
	if err != nil {
		return fmt.Errorf("%w: encode: %v", errWALUnavailable, err)
	}
	ops := make([]wal.Op, 0, 1+len(evs))
	ops = append(ops, wal.Op{Type: wal.TypeObservations, Payload: obsPayload})
	for _, ev := range evs {
		p, err := json.Marshal(walDiagnosis{
			Scenario: t.id, Time: ev.Time, Kind: ev.Kind, Diagnosis: ev.Diagnosis,
		})
		if err != nil {
			return fmt.Errorf("%w: encode: %v", errWALUnavailable, err)
		}
		ops = append(ops, wal.Op{Type: wal.TypeDiagnosis, Payload: p})
	}
	results, err := s.wlog.AppendBatch(ops)
	if err != nil {
		s.enterReadOnly(err)
		return fmt.Errorf("%w: %v", errWALUnavailable, err)
	}
	if len(kept) > 0 {
		t.mu.Lock()
		for i, ev := range kept {
			res := results[i+1]
			t.addAudit(auditEntry{seq: res.Seq, hash: hex.EncodeToString(res.Hash[:]), ev: ev})
		}
		t.mu.Unlock()
	}
	s.walAfterAppend(len(ops))
	return nil
}

// walAppendScenario appends one scenario lifecycle record durably.
func (s *Server) walAppendScenario(typ byte, payload any) error {
	_, err := s.walAppendScenarioResult(typ, payload)
	return err
}

// walAppendScenarioResult is walAppendScenario returning the appended
// record's log position and chain hash — the migration fence records
// them as the splice anchor the target's audit chain continues from.
func (s *Server) walAppendScenarioResult(typ byte, payload any) (wal.AppendResult, error) {
	p, err := json.Marshal(payload)
	if err != nil {
		return wal.AppendResult{}, fmt.Errorf("%w: encode: %v", errWALUnavailable, err)
	}
	s.walMu.RLock()
	defer s.walMu.RUnlock()
	res, err := s.wlog.Append(typ, p)
	if err != nil {
		s.enterReadOnly(err)
		return wal.AppendResult{}, fmt.Errorf("%w: %v", errWALUnavailable, err)
	}
	s.walAfterAppend(1)
	return res, nil
}

// walAfterAppend keeps the segment gauge fresh and kicks a background
// compaction once enough records have accumulated since the last fold.
func (s *Server) walAfterAppend(n int) {
	if s.walSegments != nil {
		s.walSegments.Set(float64(s.wlog.SegmentCount()))
	}
	if s.walCompactEvery <= 0 {
		return
	}
	if s.walRecordCount.Add(int64(n)) >= int64(s.walCompactEvery) &&
		s.walCompacting.CompareAndSwap(false, true) {
		go s.compactWAL()
	}
}

// compactWAL folds live state into a snapshot. The exclusive walMu lock
// stops every apply+append pair for the duration, so the captured state
// and the log position agree exactly.
func (s *Server) compactWAL() {
	defer s.walCompacting.Store(false)
	s.walMu.Lock()
	defer s.walMu.Unlock()
	if s.readOnly.Load() {
		return
	}
	state, err := json.Marshal(s.buildWALState())
	if err != nil {
		s.logger.Error("WAL compaction state encode failed", "error", err)
		return
	}
	if err := s.wlog.Compact(state); err != nil {
		if !errors.Is(err, wal.ErrClosed) {
			s.enterReadOnly(err)
		}
		return
	}
	s.walRecordCount.Store(0)
	if s.walSegments != nil {
		s.walSegments.Set(float64(s.wlog.SegmentCount()))
	}
}

// --- boot recovery ---

// openWAL opens the log, restores the snapshot, replays the tail, and
// leaves the server ready to append. Runs during New, before the handler
// serves anything.
func (s *Server) openWAL(wc *WALConfig) error {
	reg := s.registry
	s.readOnlyGauge = reg.Gauge("placemond_read_only",
		"1 while a WAL write failure has frozen mutations, else 0.")
	s.walFsync = reg.Histogram("placemond_wal_fsync_duration_seconds",
		"Latency of WAL fsyncs (the durability cost each acknowledged mutation pays).", nil)
	s.walSegments = reg.Gauge("placemond_wal_segment_count",
		"Segment files the write-ahead log currently spans.")
	s.walRecoveryDur = reg.Gauge("placemond_wal_recovery_duration_seconds",
		"Wall-clock time boot recovery spent replaying snapshot + WAL tail.")
	s.walReplayed = reg.Counter("placemond_wal_records_replayed_total",
		"WAL records replayed during boot recovery.")

	start := time.Now()
	l, rec, err := wal.Open(wc.Dir, wal.Options{
		SegmentBytes: wc.SegmentBytes,
		Sync:         wc.Sync,
		FS:           wc.FS,
		Logger:       s.logger,
		OnFsync:      func(d time.Duration) { s.walFsync.Observe(d.Seconds()) },
	})
	if err != nil {
		return err
	}
	s.wlog = l
	s.walCompactEvery = wc.CompactEvery
	if s.walCompactEvery == 0 {
		s.walCompactEvery = 4096
	}

	if len(rec.SnapshotState) > 0 {
		if err := s.restoreWALState(rec.SnapshotState); err != nil {
			return err
		}
	}
	var last replayedBatch
	for _, r := range rec.Records {
		s.replayRecord(r, &last)
	}
	s.walReplayed.Add(float64(len(rec.Records)))
	s.walSegments.Set(float64(l.SegmentCount()))
	s.walRecoveryDur.Set(time.Since(start).Seconds())
	s.logger.Info("WAL recovery complete",
		"wal_dir", wc.Dir,
		"snapshot_seq", rec.SnapshotSeq,
		"records_replayed", len(rec.Records),
		"torn_truncated", rec.TornTruncated,
		"duration", time.Since(start))
	return nil
}

// restoreWALState rebuilds every scenario recorded in a compaction
// snapshot from its stored document, then restores its replayable state.
// An entry without a document was written by an older placemond for the
// default tenant it built from boot flags: it is skipped with a warning,
// and the boot document, if any, seeds a fresh default (seedDefault).
func (s *Server) restoreWALState(doc []byte) error {
	var st walState
	if err := json.Unmarshal(doc, &st); err != nil {
		return fmt.Errorf("server: WAL snapshot state: %w", err)
	}
	ids := make([]string, 0, len(st.Scenarios))
	for id := range st.Scenarios {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		ts := st.Scenarios[id]
		if len(ts.Spec) == 0 {
			s.logger.Warn("WAL snapshot scenario without a document skipped", "scenario", id)
			continue
		}
		if err := s.createScenario(id, ts.Spec, false); err != nil {
			return fmt.Errorf("server: WAL snapshot scenario %q: %w", id, err)
		}
		t, _ := s.tenants.Get(id)
		if err := s.restoreTenantState(t, ts); err != nil {
			return fmt.Errorf("server: WAL snapshot scenario %q: %w", id, err)
		}
		s.setOutageGauges(t)
	}
	if len(st.Relocations) > 0 {
		if s.cluster == nil {
			s.logger.Warn("WAL snapshot carries relocations but clustering is off; followers cannot be redirected",
				"relocations", len(st.Relocations))
		} else {
			for id, node := range st.Relocations {
				s.cluster.setRelocation(id, node)
			}
		}
	}
	return nil
}

// restoreTenantState loads a snapshot's or a migration document's
// replayable state into a freshly built tenant: monitor state (and with
// it the last good diagnosis), dedup window, audit ledger and splice.
// Each stored response body is decoded once and kept in compact form, and
// a ledger row whose diagnosis equals one of a window entry's keeps that
// entry's record.
func (s *Server) restoreTenantState(t *tenant, ts *walTenantState) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := t.mon.RestoreState(ts.Monitor); err != nil {
		return err
	}
	t.keepGood()
	byTime := map[float64][]compactEvent{}
	if t.dedup != nil && len(ts.Dedup) > 0 {
		grew := 0
		var lists storedLists
		for _, r := range ts.Dedup {
			kept, err := decodeObsBody(r.Body, &t.unobserved, &lists)
			if err != nil {
				return fmt.Errorf("dedup entry %q: %w", r.ID, err)
			}
			if t.dedup.store(r.ID, dedupEntry{status: r.Status, events: kept}) {
				grew++
			}
			if len(kept) > 0 {
				byTime[kept[0].time] = append(byTime[kept[0].time], kept...)
			}
		}
		if grew > 0 && s.dedupGauge != nil {
			s.dedupGauge.Add(float64(grew))
		}
	}
	t.audit = make([]auditEntry, len(ts.Audit))
	for i, e := range ts.Audit {
		a := auditEntry{seq: e.Seq, hash: e.Hash,
			ev: compactEvent{time: e.Time, kind: e.Kind, diag: compactDiagnosisOf(e.Diagnosis, &t.unobserved)}}
		shareKept(&a.ev, byTime[e.Time])
		t.audit[i] = a
	}
	t.auditTotal = ts.AuditTotal
	t.splice.Store(ts.Splice)
	return nil
}

// replayedBatch is the last observation batch boot replay re-applied:
// its tenant and the events it keeps, which the diagnosis records that
// follow it in the log share.
type replayedBatch struct {
	t    *tenant
	kept []compactEvent
}

// replayRecord applies one recovered WAL-tail record. Records for
// scenarios this boot cannot host are skipped with a warning — one stale
// record must not take the fleet down — while everything else re-applies
// exactly as the original request did.
func (s *Server) replayRecord(r wal.Record, last *replayedBatch) {
	switch r.Type {
	case wal.TypeScenarioCreate:
		var p walScenarioCreate
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed create record skipped", "seq", r.Seq, "error", err)
			return
		}
		if _, exists := s.tenants.Get(p.ID); exists {
			s.logger.Warn("WAL replay: scenario already exists", "seq", r.Seq, "scenario", p.ID)
			return
		}
		if err := s.createScenario(p.ID, p.Spec, false); err != nil {
			s.logger.Warn("WAL replay: create failed", "seq", r.Seq, "scenario", p.ID, "error", err)
		}
	case wal.TypeScenarioDelete:
		var p walScenarioDelete
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed delete record skipped", "seq", r.Seq, "error", err)
			return
		}
		if t, ok := s.tenants.Get(p.ID); ok {
			s.removeTenantState(t)
		}
	case wal.TypeObservations:
		var p walObservations
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed observation record skipped", "seq", r.Seq, "error", err)
			return
		}
		t, ok := s.tenants.Get(p.Scenario)
		if !ok {
			s.logger.Warn("WAL replay: observations for unknown scenario skipped",
				"seq", r.Seq, "scenario", p.Scenario)
			return
		}
		for _, c := range p.Conns {
			if c < 0 || c >= len(t.conns) {
				s.logger.Warn("WAL replay: observation batch shape mismatch skipped",
					"seq", r.Seq, "scenario", p.Scenario, "connection", c)
				return
			}
		}
		// Regenerate exactly what the original handler produced: the
		// monitor state with its last good diagnosis, the events the
		// dedup window keeps, the outage gauge. (Audit entries come from
		// the TypeDiagnosis records that follow, not from the regenerated
		// events; they share the regenerated records they equal.)
		t.mu.Lock()
		events, err := t.mon.ReportBatch(p.Time, p.Conns, p.Ups)
		t.keepGood()
		t.mu.Unlock()
		*last = replayedBatch{}
		if err != nil {
			s.logger.Warn("WAL replay: batch re-apply failed", "seq", r.Seq, "scenario", p.Scenario, "error", err)
			return
		}
		s.setOutageGauges(t)
		sc := getObsScratch()
		kept := compactEvents(sc.wire(events).Events, &t.unobserved)
		putObsScratch(sc)
		*last = replayedBatch{t: t, kept: kept}
		if t.dedup != nil && p.BatchID != "" {
			t.mu.Lock()
			grew := t.dedup.store(p.BatchID, dedupEntry{status: http.StatusOK, events: kept})
			t.mu.Unlock()
			if grew && s.dedupGauge != nil {
				s.dedupGauge.Add(1)
			}
		}
	case wal.TypeScenarioUpdate:
		var p walScenarioUpdate
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed update record skipped", "seq", r.Seq, "error", err)
			return
		}
		s.replayScenarioUpdate(r.Seq, p)
	case wal.TypeScenarioMigrateOut:
		var p walMigrate
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed migrate-out record skipped", "seq", r.Seq, "error", err)
			return
		}
		s.replayMigrateOut(r.Seq, p)
	case wal.TypeScenarioMigrateIn:
		var p walMigrate
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed migrate-in record skipped", "seq", r.Seq, "error", err)
			return
		}
		s.replayMigrateIn(r.Seq, p)
	case wal.TypeDiagnosis:
		var p walDiagnosis
		if err := json.Unmarshal(r.Payload, &p); err != nil {
			s.logger.Warn("WAL replay: malformed diagnosis record skipped", "seq", r.Seq, "error", err)
			return
		}
		t, ok := s.tenants.Get(p.Scenario)
		if !ok {
			s.logger.Warn("WAL replay: diagnosis for unknown scenario skipped",
				"seq", r.Seq, "scenario", p.Scenario)
			return
		}
		ev := compactEvent{time: p.Time, kind: p.Kind, diag: compactDiagnosisOf(p.Diagnosis, &t.unobserved)}
		if last.t == t {
			shareKept(&ev, last.kept)
		}
		t.mu.Lock()
		t.addAudit(auditEntry{seq: r.Seq, hash: hex.EncodeToString(r.Hash[:]), ev: ev})
		t.mu.Unlock()
	default:
		s.logger.Warn("WAL replay: unknown record type skipped", "seq", r.Seq, "type", r.Type)
	}
}

// setOutageGauges refreshes the tenant outage gauge (and the legacy
// unlabeled gauge for the default tenant).
func (s *Server) setOutageGauges(t *tenant) {
	outage := 0.0
	if t.inOutage() {
		outage = 1
	}
	t.outage.Set(outage)
	if t.id == DefaultScenario {
		s.outageGauge.Set(outage)
	}
}

// --- the audit endpoint ---

// auditEvent is the wire form of one row of the diagnosis audit ledger:
// the WAL record's position and chain hash plus the decoded event.
type auditEvent struct {
	Seq       uint64         `json:"seq"`
	Hash      string         `json:"hash"`
	Time      float64        `json:"time"`
	Kind      string         `json:"kind"`
	Diagnosis *diagnosisJSON `json:"diagnosis,omitempty"`
}

// auditEntry is one row of the ledger as a tenant keeps it: the event in
// the compact form the dedup window shares.
type auditEntry struct {
	seq  uint64
	hash string
	ev   compactEvent
}

// wireAudit renders ledger rows in their wire form, nil for none. The
// rows, their diagnoses and every healthy list take one allocation each.
func wireAudit(rows []auditEntry) []auditEvent {
	if len(rows) == 0 {
		return nil
	}
	nd, nh := 0, 0
	for _, e := range rows {
		if e.ev.diag != nil {
			nd++
			nh += e.ev.diag.healthyLen()
		}
	}
	out := make([]auditEvent, len(rows))
	diags := make([]diagnosisJSON, nd)
	healthy := make([]int, 0, nh)
	for i, e := range rows {
		out[i] = auditEvent{Seq: e.seq, Hash: e.hash, Time: e.ev.time, Kind: e.ev.kind}
		if e.ev.diag != nil {
			healthy = e.ev.diag.wireInto(&diags[0], healthy)
			out[i].Diagnosis = &diags[0]
			diags = diags[1:]
		}
	}
	return out
}

// auditSplice links a migrated scenario's audit chain across logs: the
// scenario's pre-migration events live in SourceNode's WAL, whose chain
// head at the migration fence was (SourceHeadSeq, SourceHeadHash).
// Verifying the source log and checking that its record at
// SourceHeadSeq carries SourceHeadHash proves the chains join with
// nothing lost or reordered in between.
type auditSplice struct {
	SourceNode     string `json:"source_node"`
	SourceHeadSeq  uint64 `json:"source_head_seq,omitempty"`
	SourceHeadHash string `json:"source_head_hash,omitempty"`
}

// auditChainJSON is the audit response's chain-verification block,
// produced by walking the log on disk.
type auditChainJSON struct {
	Verified    bool   `json:"verified"`
	HeadSeq     uint64 `json:"head_seq"`
	HeadHash    string `json:"head_hash"`
	Records     int    `json:"records"`
	Segments    int    `json:"segments"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Torn        bool   `json:"torn,omitempty"`
	Error       string `json:"error,omitempty"`
}

// serveAudit answers GET /v1/scenarios/{id}/audit: the scenario's
// retained diagnosis events (each pinned to its WAL sequence number and
// chain hash) plus a fresh verification walk of the log on disk, which
// runs outside the tenant's state lock. ?limit=N caps the event list to
// the N newest.
func (s *Server) serveAudit(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.wlog == nil {
		writeError(w, http.StatusNotImplemented, "audit requires the write-ahead log (-wal-dir)")
		return
	}
	limit, ok := traceLimit(w, r)
	if !ok {
		return
	}
	t.mu.Lock()
	rows := t.audit
	if limit > 0 && len(rows) > limit {
		rows = rows[len(rows)-limit:]
	}
	rows = append([]auditEntry(nil), rows...)
	total := t.auditTotal
	t.mu.Unlock()
	events := wireAudit(rows)
	if events == nil {
		events = []auditEvent{}
	}
	out := struct {
		Scenario    string       `json:"scenario"`
		TotalEvents int          `json:"total_events"`
		Events      []auditEvent `json:"events"`
		// Splice, for a scenario adopted from another node, names the
		// source log's chain head at the migration fence: verifying the
		// source log and finding that (seq, hash) pair proves the two
		// chains join.
		Splice *auditSplice   `json:"splice,omitempty"`
		Chain  auditChainJSON `json:"chain"`
	}{Scenario: t.id, TotalEvents: total, Events: events, Splice: t.splice.Load()}

	rep, err := s.wlog.Verify()
	if err != nil {
		out.Chain.Error = err.Error()
	} else {
		out.Chain.Verified = true
	}
	if rep != nil {
		out.Chain.HeadSeq = rep.LastSeq
		out.Chain.HeadHash = rep.ChainHead
		out.Chain.Records = rep.Records
		out.Chain.Segments = rep.Segments
		out.Chain.SnapshotSeq = rep.SnapshotSeq
		out.Chain.Torn = rep.Torn
	}
	writeJSON(w, http.StatusOK, out)
}
