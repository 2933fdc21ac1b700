package server

// The cluster layer: ownership routing, peer forwarding, and live
// scenario migration. internal/cluster decides which node owns a
// scenario; this file decides what a node does about it — serve
// locally when owner, answer 307 + Placemond-Owner (or proxy
// peer-to-peer) when not, and move a scenario between nodes with a
// WAL-fenced snapshot-transfer-resume handoff that splices the audit
// hash chain verifiably across the two logs.
//
// Request flow for a scenario-scoped route in cluster mode:
//
//	hosted here, no handoff   → serve locally (the single-node path)
//	hosted here, mid-handoff  → wait for the handoff to settle, then
//	                            follow the scenario to its new owner
//	                            (or resume locally if the move failed)
//	not hosted, owner == self → 404: the scenario does not exist
//	not hosted, owner != self → 307 Location + Placemond-Owner, or a
//	                            proxied sub-request when Proxy is on
//
// Ownership = explicit relocation (recorded by a completed migration,
// durable via the WAL) falling back to the consistent-hash ring.

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/metrics"
	"repro/internal/registry"
	"repro/internal/trace"
	"repro/internal/wal"
)

const (
	// OwnerHeader names the owning node on 307 redirects (alongside the
	// Location the client should follow) and on proxied responses.
	OwnerHeader = "Placemond-Owner"
	// forwardHopsHeader counts peer-to-peer proxy hops so a stale
	// membership view cannot bounce a request around the ring forever.
	forwardHopsHeader = "Placemond-Forward-Hops"
	// maxForwardHops bounds a proxy chain. A request legitimately
	// crosses at most two hops (stale forwarder → ring owner → node the
	// scenario was migrated to); a third means the nodes disagree about
	// membership.
	maxForwardHops = 3
	// maxMigrateDoc bounds the migration transfer body — the WAL's own
	// payload cap, since the fence record carries the same document.
	maxMigrateDoc = 8 << 20
)

// errNotOwner marks a mutation refused because another node owns the
// scenario; the HTTP layer answers 421 with the owner named.
var errNotOwner = errors.New("server: scenario is owned by another node")

// ClusterConfig enables multi-node operation; see package comment in
// internal/cluster for the ownership model.
type ClusterConfig struct {
	// Membership is the parsed static member list plus ownership ring;
	// it must include this node.
	Membership *cluster.Membership
	// Proxy makes non-owners forward scenario requests peer-to-peer and
	// relay the answer, instead of redirecting the client with 307.
	Proxy bool
	// ForceAdopt lets boot adopt stored scenarios whose ring owner is
	// another node (logged loudly) instead of refusing to start.
	ForceAdopt bool
	// HTTPClient performs peer requests — proxying and migration
	// transfers (default: a client that never follows redirects, so a
	// peer's 307 passes through to the real client untouched).
	HTTPClient *http.Client
}

// clusterNode is the server's runtime cluster state.
type clusterNode struct {
	members    *cluster.Membership
	proxy      bool
	forceAdopt bool
	client     *http.Client

	// relocated maps scenario ID → node it migrated to, overriding the
	// ring. Entries are recorded by completed outbound migrations and
	// restored from the WAL (migrate-out records and snapshots), so a
	// restarted source still points followers at the right node.
	mu        sync.Mutex
	relocated map[string]string

	redirects     *metrics.Counter
	proxied       *metrics.Counter
	migrationsOut *metrics.Counter
	migrationsIn  *metrics.Counter
}

func newClusterNode(cc *ClusterConfig, reg *metrics.Registry) (*clusterNode, error) {
	if cc.Membership == nil {
		return nil, fmt.Errorf("server: ClusterConfig.Membership is required")
	}
	hc := cc.HTTPClient
	if hc == nil {
		hc = &http.Client{
			// Pass peers' redirects through untouched: a proxied request
			// must relay the 307 (it belongs to the end client), and the
			// migration POST never redirects.
			CheckRedirect: func(*http.Request, []*http.Request) error {
				return http.ErrUseLastResponse
			},
		}
	}
	cn := &clusterNode{
		members:    cc.Membership,
		proxy:      cc.Proxy,
		forceAdopt: cc.ForceAdopt,
		client:     hc,
		relocated:  map[string]string{},
		redirects: reg.Counter("placemond_cluster_forwards_total",
			"Scenario requests routed to their owner node, by mode.", "mode", "redirect"),
		proxied: reg.Counter("placemond_cluster_forwards_total",
			"Scenario requests routed to their owner node, by mode.", "mode", "proxy"),
		migrationsOut: reg.Counter("placemond_cluster_migrations_total",
			"Completed live scenario migrations, by direction.", "direction", "out"),
		migrationsIn: reg.Counter("placemond_cluster_migrations_total",
			"Completed live scenario migrations, by direction.", "direction", "in"),
	}
	reg.Gauge("placemond_cluster_members",
		"Static cluster membership size (absent when clustering is off).").
		Set(float64(cc.Membership.Size()))
	return cn, nil
}

func (cn *clusterNode) self() string { return cn.members.Self() }

func (cn *clusterNode) setRelocation(id, target string) {
	cn.mu.Lock()
	cn.relocated[id] = target
	cn.mu.Unlock()
}

func (cn *clusterNode) clearRelocation(id string) {
	cn.mu.Lock()
	delete(cn.relocated, id)
	cn.mu.Unlock()
}

func (cn *clusterNode) relocation(id string) string {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	return cn.relocated[id]
}

func (cn *clusterNode) relocations() map[string]string {
	cn.mu.Lock()
	defer cn.mu.Unlock()
	out := make(map[string]string, len(cn.relocated))
	for id, n := range cn.relocated {
		out[id] = n
	}
	return out
}

// ownerOf resolves a scenario's owner: an explicit relocation (a
// completed migration moved it off-ring) wins over the ring.
func (s *Server) ownerOf(id string) cluster.Member {
	cn := s.cluster
	if reloc := cn.relocation(id); reloc != "" {
		if m, ok := cn.members.Member(reloc); ok {
			return m
		}
	}
	return cn.members.Owner(id)
}

// --- forwarding ---

// routeScenario answers a request for a scenario this node does not
// host. It reports false — respond 404 locally — only when this node is
// the owner, i.e. the scenario genuinely does not exist anywhere.
func (s *Server) routeScenario(w http.ResponseWriter, r *http.Request, id string) bool {
	owner := s.ownerOf(id)
	if owner.ID == s.cluster.self() {
		return false
	}
	trace.FromContext(r.Context()).SetTenant(id)
	s.forwardTo(w, r, owner)
	return true
}

// clusterAdminLocal routes a create/delete (which bypass forScenario):
// a scenario hosted here mid-handoff waits out the migration, one not
// hosted here goes to its owner. It returns true when the caller should
// proceed locally.
func (s *Server) clusterAdminLocal(w http.ResponseWriter, r *http.Request, id string) bool {
	if t, hosted := s.tenants.Get(id); hosted {
		if h := t.currentHandoff(); h != nil {
			return s.resolveHandoff(h, w, r, false)
		}
		return true
	}
	return !s.routeScenario(w, r, id)
}

// forwardTo hands the request to its owner node: a 307 the client
// follows, or — in proxy mode — a relayed peer-to-peer sub-request.
func (s *Server) forwardTo(w http.ResponseWriter, r *http.Request, owner cluster.Member) {
	if s.cluster.proxy {
		s.proxyTo(w, r, owner)
		return
	}
	s.redirectTo(w, r, owner)
}

// redirectTo answers 307 Temporary Redirect with the owner's absolute
// URL for the same path, naming the owner in Placemond-Owner so clients
// can cache the hint.
func (s *Server) redirectTo(w http.ResponseWriter, r *http.Request, owner cluster.Member) {
	s.cluster.redirects.Inc()
	trace.FromContext(r.Context()).Annotate("redirect_to", owner.ID)
	w.Header().Set(OwnerHeader, owner.ID)
	w.Header().Set("Location", owner.URL+r.URL.RequestURI())
	w.WriteHeader(http.StatusTemporaryRedirect)
}

// proxyTo relays the request to the owner and streams the answer back,
// timing the round trip as a "forward" stage on the request's trace.
// The trace ID crosses the hop, so one Placemond-Trace-Id spans the
// forwarder's and the owner's /debug/traces rings.
func (s *Server) proxyTo(w http.ResponseWriter, r *http.Request, owner cluster.Member) {
	hops := 0
	if hv := r.Header.Get(forwardHopsHeader); hv != "" {
		hops, _ = strconv.Atoi(hv)
	}
	if hops >= maxForwardHops {
		writeError(w, http.StatusBadGateway,
			"forwarding loop: %s crossed %d nodes without finding its owner (stale membership?)",
			r.URL.Path, hops)
		return
	}
	s.cluster.proxied.Inc()
	sp := trace.FromContext(r.Context())
	st := sp.StartStage("forward")
	req, err := http.NewRequestWithContext(r.Context(), r.Method, owner.URL+r.URL.RequestURI(), r.Body)
	if err != nil {
		st.EndDetail("peer=%s build error", owner.ID)
		writeError(w, http.StatusBadGateway, "forward to node %s: %v", owner.ID, err)
		return
	}
	req.Header = r.Header.Clone()
	if id := trace.IDFromContext(r.Context()); id != "" {
		req.Header.Set(trace.Header, id)
	}
	req.Header.Set(forwardHopsHeader, strconv.Itoa(hops+1))
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		st.EndDetail("peer=%s error", owner.ID)
		writeError(w, http.StatusBadGateway, "forward to node %s: %v", owner.ID, err)
		return
	}
	defer resp.Body.Close()
	for k, vs := range resp.Header {
		for _, v := range vs {
			w.Header().Add(k, v)
		}
	}
	w.Header().Set(OwnerHeader, owner.ID)
	w.WriteHeader(resp.StatusCode)
	n, _ := io.Copy(w, resp.Body)
	st.EndDetail("peer=%s status=%d bytes=%d", owner.ID, resp.StatusCode, n)
}

// --- the migration handoff ---

// handoff is the rendezvous between a live migration and the requests
// it fences out: arm it, move the scenario, then finish it with the new
// owner (or nil when the move failed and the tenant resumed locally).
// Waiters observe the outcome through the closed channel.
type handoff struct {
	done   chan struct{}
	target *cluster.Member // written once before close(done)
}

func newHandoff() *handoff { return &handoff{done: make(chan struct{})} }

// finish publishes the outcome and releases every waiter.
func (h *handoff) finish(target *cluster.Member) {
	h.target = target
	close(h.done)
}

// await blocks until the handoff settles or ctx ends. ok=false means
// the context expired first; otherwise target is the scenario's new
// owner, or nil when the migration failed and the tenant serves on.
func (h *handoff) await(ctx context.Context) (*cluster.Member, bool) {
	select {
	case <-h.done:
		return h.target, true
	case <-ctx.Done():
		return nil, false
	}
}

// resolveHandoff settles a request caught mid-migration: wait, then
// follow the scenario to its new owner. It returns true when the caller
// should continue serving locally (the migration failed and rolled
// back); in every other case the response has been written.
// redirectOnly forces a 307 even in proxy mode — the ingest path has
// already consumed the request body, so a proxied re-send is impossible
// but a redirect (the client re-sends the body itself) is fine.
func (s *Server) resolveHandoff(h *handoff, w http.ResponseWriter, r *http.Request, redirectOnly bool) bool {
	target, ok := h.await(r.Context())
	if !ok {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusServiceUnavailable, "scenario is migrating; retry")
		return false
	}
	if target == nil {
		return true
	}
	if redirectOnly {
		s.redirectTo(w, r, *target)
	} else {
		s.forwardTo(w, r, *target)
	}
	return false
}

// --- migration (source side) ---

// walMigrate is the migration document: the payload of both
// TypeScenarioMigrateOut (the fence, written on the source) and
// TypeScenarioMigrateIn (the adoption, written on the target), and the
// body of POST /v1/cluster/adopt in between. Carrying the full
// replayable state in the fence record means a handoff interrupted at
// any point loses nothing: the state is always durable in at least one
// node's log.
type walMigrate struct {
	ID     string `json:"id"`
	Source string `json:"source"`
	Target string `json:"target"`
	// State is the scenario's full replayable state at the fence: spec,
	// monitor counters, dedup window, audit ledger.
	State *walTenantState `json:"state"`
	// SourceHeadSeq/Hash pin the source log's chain head — the fence
	// record itself — splicing the scenario's audit chain verifiably
	// across the two logs. Zero when the source runs without a WAL.
	SourceHeadSeq  uint64 `json:"source_head_seq,omitempty"`
	SourceHeadHash string `json:"source_head_hash,omitempty"`
}

// migrateRequest is the body of POST /v1/scenarios/{id}/migrate.
type migrateRequest struct {
	Target string `json:"target"`
}

// migrateResponse reports a completed migration, including the source
// chain head the target's audit splice must match.
type migrateResponse struct {
	Scenario        string  `json:"scenario"`
	From            string  `json:"from"`
	To              string  `json:"to"`
	HeadSeq         uint64  `json:"head_seq,omitempty"`
	HeadHash        string  `json:"head_hash,omitempty"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// serveScenarioMigrate handles POST /v1/scenarios/{id}/migrate on the
// owner: snapshot → WAL-fenced transfer → resume on the target.
func (s *Server) serveScenarioMigrate(t *tenant, w http.ResponseWriter, r *http.Request) {
	if s.cluster == nil {
		writeError(w, http.StatusNotImplemented, "not a cluster member (start with -peers/-node-id)")
		return
	}
	if s.rejectReadOnly(w) {
		return
	}
	var req migrateRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	if req.Target == s.cluster.self() {
		writeError(w, http.StatusBadRequest, "scenario %q is already on node %s", t.id, req.Target)
		return
	}
	target, ok := s.cluster.members.Member(req.Target)
	if !ok {
		writeError(w, http.StatusBadRequest, "unknown target node %q", req.Target)
		return
	}
	res, err := s.migrateScenario(r.Context(), t, target)
	switch {
	case errors.Is(err, errScenarioBusy):
		writeError(w, http.StatusConflict, "%v", err)
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, errWALUnavailable):
		respondReadOnly(w)
	case err != nil:
		writeError(w, http.StatusBadGateway, "%v", err)
	default:
		writeJSON(w, http.StatusOK, res)
	}
}

// migrateScenario moves a hosted scenario to target. Sequencing:
//
//  1. Arm the handoff and claim the drain flag: concurrent migrations,
//     deletions, and network replacements lose with a conflict, and
//     requests arriving from here on wait on the handoff instead of
//     racing the move.
//  2. Fence under ingestMu: snapshot the full replayable state, then
//     append the migrate-out record (which carries that state). After
//     the fence, replay on this node will never resurrect the scenario
//     as locally owned, and no observation can sneak into the log
//     behind the snapshot — ingest re-checks the handoff under ingestMu
//     and 307s instead of applying.
//  3. Transfer: POST the document to the target, which restores the
//     state, appends its migrate-in record (append-before-ack), and
//     answers only once the adoption is durable.
//  4. Resume: drop the local tenant, record the relocation so stale
//     followers get one extra 307, and release the handoff waiters
//     toward the target. On a failed transfer, append a compensating
//     migrate-in locally (re-adopting our own fence document) and
//     resume serving — the scenario never has zero owners.
func (s *Server) migrateScenario(ctx context.Context, t *tenant, target cluster.Member) (*migrateResponse, error) {
	start := time.Now()
	h := newHandoff()
	if !t.armHandoff(h) {
		return nil, fmt.Errorf("%w: %q (migration already in progress)", errScenarioBusy, t.id)
	}
	if !t.beginDrain() {
		t.clearHandoff()
		h.finish(nil)
		return nil, fmt.Errorf("%w: %q", errScenarioBusy, t.id)
	}
	resumeLocal := func() {
		t.clearHandoff()
		t.endDrain()
		h.finish(nil)
	}

	sp := trace.FromContext(ctx)
	st := sp.StartStage("fence")
	t.ingestMu.Lock()
	doc, err := s.buildMigrateDoc(t, target.ID)
	if err == nil && s.wlog != nil {
		var res wal.AppendResult
		if res, err = s.walAppendScenarioResult(wal.TypeScenarioMigrateOut, doc); err == nil {
			doc.SourceHeadSeq = res.Seq
			doc.SourceHeadHash = hex.EncodeToString(res.Hash[:])
		}
	}
	t.ingestMu.Unlock()
	if err != nil {
		st.EndDetail("failed")
		resumeLocal()
		return nil, err
	}
	st.EndDetail("head_seq=%d", doc.SourceHeadSeq)

	st = sp.StartStage("transfer")
	err = s.postAdopt(ctx, target, doc)
	st.EndDetail("target=%s ok=%t", target.ID, err == nil)
	if err != nil {
		// Compensate the fence: re-adopt our own document so boot replay
		// nets out to "still owned here", then resume serving.
		if s.wlog != nil {
			if rerr := s.walAppendScenario(wal.TypeScenarioMigrateIn, doc); rerr != nil {
				// The log just went read-only; the fence stands in the log
				// but the live tenant keeps serving reads, and the next
				// boot recovers the scenario from the fence document.
				s.logger.Error("migration rollback append failed; scenario recoverable from fence record",
					"scenario", t.id, "error", rerr)
			} else {
				t.setSplice(&auditSplice{
					SourceNode:     s.cluster.self(),
					SourceHeadSeq:  doc.SourceHeadSeq,
					SourceHeadHash: doc.SourceHeadHash,
				})
			}
		}
		resumeLocal()
		return nil, fmt.Errorf("server: transfer scenario %q to node %s: %w", t.id, target.ID, err)
	}

	s.removeTenantState(t)
	s.cluster.setRelocation(t.id, target.ID)
	t.mon.Close()
	moved := target
	h.finish(&moved)
	s.cluster.migrationsOut.Inc()
	s.logger.Info("scenario migrated out", "scenario", t.id, "target", target.ID,
		"head_seq", doc.SourceHeadSeq, "duration", time.Since(start))
	return &migrateResponse{
		Scenario: t.id, From: s.cluster.self(), To: target.ID,
		HeadSeq: doc.SourceHeadSeq, HeadHash: doc.SourceHeadHash,
		DurationSeconds: time.Since(start).Seconds(),
	}, nil
}

// buildMigrateDoc snapshots t's full replayable state. Caller holds
// t.ingestMu, so the snapshot is a consistent fence point.
func (s *Server) buildMigrateDoc(t *tenant, target string) (*walMigrate, error) {
	mst, ok := t.mon.ExportState()
	if !ok {
		return nil, fmt.Errorf("%w: %q", errScenarioBusy, t.id)
	}
	ts := &walTenantState{Spec: t.spec, Monitor: mst}
	if t.dedup != nil {
		ts.Dedup = t.dedup.export()
	}
	ts.Audit, ts.AuditTotal = t.auditSnapshot(0)
	return &walMigrate{ID: t.id, Source: s.cluster.self(), Target: target, State: ts}, nil
}

// postAdopt ships the migration document to the target's adopt
// endpoint and interprets the answer.
func (s *Server) postAdopt(ctx context.Context, target cluster.Member, doc *walMigrate) error {
	body, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode migration document: %w", err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target.URL+"/v1/cluster/adopt", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if id := trace.IDFromContext(ctx); id != "" {
		req.Header.Set(trace.Header, id)
	}
	resp, err := s.cluster.client.Do(req)
	if err != nil {
		return err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode >= 300 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var envelope struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(raw))
		if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
			msg = envelope.Error
		}
		return fmt.Errorf("target answered %d: %s", resp.StatusCode, msg)
	}
	return nil
}

// --- migration (target side) ---

// handleClusterAdopt handles POST /v1/cluster/adopt: restore the
// migrated scenario's state and make the adoption durable before
// acknowledging — the source drops its copy only after the 200.
func (s *Server) handleClusterAdopt(w http.ResponseWriter, r *http.Request) {
	if s.rejectReadOnly(w) {
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxMigrateDoc))
	if err != nil {
		writeBodyError(w, "migration document", err)
		return
	}
	var doc walMigrate
	if err := json.Unmarshal(body, &doc); err != nil {
		writeError(w, http.StatusBadRequest, "invalid migration document: %v", err)
		return
	}
	if err := registry.ValidateID(doc.ID); err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if doc.Target != s.cluster.self() {
		writeError(w, http.StatusMisdirectedRequest,
			"migration addressed to node %q, this is %q", doc.Target, s.cluster.self())
		return
	}
	switch err := s.adoptScenario(&doc, true); {
	case errors.Is(err, registry.ErrExists):
		writeError(w, http.StatusConflict, "scenario %q already hosted here", doc.ID)
	case errors.Is(err, registry.ErrFull):
		writeError(w, http.StatusInsufficientStorage, "%v", err)
	case errors.Is(err, ErrBadSpec):
		writeError(w, http.StatusUnprocessableEntity, "%v", err)
	case errors.Is(err, errWALUnavailable):
		respondReadOnly(w)
	case err != nil:
		writeError(w, http.StatusBadRequest, "%v", err)
	default:
		s.cluster.migrationsIn.Inc()
		s.logger.Info("scenario migrated in", "scenario", doc.ID, "source", doc.Source,
			"source_head_seq", doc.SourceHeadSeq)
		writeJSON(w, http.StatusOK, map[string]any{
			"adopted": true, "scenario": doc.ID, "source": doc.Source,
		})
	}
}

// adoptScenario rebuilds a migrated scenario from its document: build
// the tenant from the spec, restore monitor/dedup/audit state, record
// the audit splice, register, and (when persist and a log is configured)
// append the migrate-in record before reporting success. Boot replay
// calls it with persist=false — the record being replayed is the
// durability.
func (s *Server) adoptScenario(doc *walMigrate, persist bool) error {
	if doc.State == nil || len(doc.State.Spec) == 0 {
		return fmt.Errorf("%w: migration document for %q carries no scenario spec", ErrBadSpec, doc.ID)
	}
	tc, err := s.build(doc.ID, doc.State.Spec)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	t, err := s.newTenant(doc.ID, tc, append([]byte(nil), doc.State.Spec...))
	if err != nil {
		return err
	}
	if err := s.restoreTenantState(t, doc.State); err != nil {
		t.mon.Close()
		return fmt.Errorf("%w: restore monitor state: %v", ErrBadSpec, err)
	}
	t.setSplice(&auditSplice{
		SourceNode:     doc.Source,
		SourceHeadSeq:  doc.SourceHeadSeq,
		SourceHeadHash: doc.SourceHeadHash,
	})
	if err := s.addTenant(t); err != nil {
		t.mon.Close()
		return err
	}
	if persist && s.wlog != nil {
		if err := s.walAppendScenario(wal.TypeScenarioMigrateIn, doc); err != nil {
			s.removeTenantState(t)
			t.mon.Close()
			return err
		}
	}
	if s.cluster != nil {
		s.cluster.clearRelocation(doc.ID)
	}
	s.setOutageGauges(t)
	if persist && s.prewarm != nil {
		// Prime the warm-start placement cache in the background so the
		// first post-migration network revision re-places warm (the cache
		// is per-process and did not travel with the scenario).
		go s.prewarm(doc.ID, append([]byte(nil), t.spec...))
	}
	return nil
}

// --- boot-time ownership validation ---

// validateClusterOwnership refuses to boot while hosting a stored
// scenario whose owner is another node and which was not explicitly
// adopted (via migration or -force-adopt): silently double-owning a
// scenario would fork its diagnosis state across nodes.
func (s *Server) validateClusterOwnership() error {
	if s.cluster == nil {
		return nil
	}
	var bad []string
	s.tenants.Range(func(id string, t *tenant) bool {
		if t.getSplice() != nil {
			return true
		}
		owner := s.ownerOf(id)
		if owner.ID == s.cluster.self() {
			return true
		}
		if s.cluster.forceAdopt {
			s.logger.Warn("force-adopting scenario owned by another node",
				"scenario", id, "owner", owner.ID)
			return true
		}
		bad = append(bad, fmt.Sprintf("%s (owner %s)", id, owner.ID))
		return true
	})
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("server: refusing to double-own scenarios that belong to other nodes: %s (migrate them, fix -peers, or start with -force-adopt)",
		strings.Join(bad, ", "))
}

// --- cluster introspection ---

// handleClusterInfo serves GET /v1/cluster: this node's membership
// view, forwarding mode, and relocation table.
func (s *Server) handleClusterInfo(w http.ResponseWriter, r *http.Request) {
	type memberJSON struct {
		ID   string `json:"id"`
		URL  string `json:"url"`
		Self bool   `json:"self,omitempty"`
	}
	cn := s.cluster
	out := struct {
		Self        string            `json:"self"`
		Proxy       bool              `json:"proxy"`
		Members     []memberJSON      `json:"members"`
		Relocations map[string]string `json:"relocations,omitempty"`
	}{Self: cn.self(), Proxy: cn.proxy, Relocations: cn.relocations()}
	for _, m := range cn.members.Members() {
		out.Members = append(out.Members, memberJSON{ID: m.ID, URL: m.URL, Self: m.ID == cn.self()})
	}
	writeJSON(w, http.StatusOK, out)
}

// replayMigrateOut re-applies a migration fence at boot: the scenario
// is no longer owned here; followers are pointed at the target.
func (s *Server) replayMigrateOut(seq uint64, p walMigrate) {
	if t, ok := s.tenants.Get(p.ID); ok {
		s.removeTenantState(t)
		t.mon.Close()
	}
	if s.cluster != nil {
		s.cluster.setRelocation(p.ID, p.Target)
	} else {
		// Booted without -peers after migrating scenarios away: the data
		// lives elsewhere, and without a membership there is nobody to
		// redirect to. The record still removed local ownership.
		s.logger.Warn("WAL replay: migrate-out without cluster membership",
			"seq", seq, "scenario", p.ID, "target", p.Target)
	}
}

// replayMigrateIn re-applies an adoption (or a failed-transfer
// re-adoption on the source) at boot.
func (s *Server) replayMigrateIn(seq uint64, p walMigrate) {
	if t, ok := s.tenants.Get(p.ID); ok {
		// A re-adoption for a tenant that never left (the fence and its
		// compensation both sit in the tail): just record the splice.
		t.setSplice(&auditSplice{
			SourceNode: p.Source, SourceHeadSeq: p.SourceHeadSeq, SourceHeadHash: p.SourceHeadHash,
		})
		if s.cluster != nil {
			s.cluster.clearRelocation(p.ID)
		}
		return
	}
	if err := s.adoptScenario(&p, false); err != nil {
		s.logger.Warn("WAL replay: migrate-in failed", "seq", seq, "scenario", p.ID, "error", err)
	}
}
