package placemonclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"

	"repro/internal/trace"
)

// ErrScenarioNotFound means the addressed scenario does not exist on the
// server (HTTP 404 on a scenario-scoped route). Scenario-scoped calls
// and DeleteScenario wrap it, so callers can errors.Is instead of
// inspecting APIError statuses.
var ErrScenarioNotFound = errors.New("placemonclient: scenario not found")

// ScenarioInfo is one scenario's status row, as served by
// GET /v1/scenarios and GET /v1/scenarios/{id}.
type ScenarioInfo struct {
	ID          string `json:"id"`
	Connections int    `json:"connections"`
	InOutage    bool   `json:"in_outage"`
	// Persistent reports whether the scenario survives a daemon restart:
	// true exactly when the daemon runs with a write-ahead log (-wal-dir).
	Persistent bool `json:"persistent"`
}

// ScenarioClient addresses one scenario of a multi-tenant placemond: the
// same calls as Client, routed to /v1/scenarios/{id}/... and sharing the
// parent's retry loop, circuit breaker, and metrics. Create with
// Client.Scenario; safe for concurrent use.
type ScenarioClient struct {
	c      *Client
	id     string
	prefix string
}

// Scenario returns a client scoped to the named scenario. The ID is not
// checked locally; an unknown one surfaces as ErrScenarioNotFound on the
// first call.
func (c *Client) Scenario(id string) *ScenarioClient {
	return &ScenarioClient{c: c, id: id, prefix: "/v1/scenarios/" + url.PathEscape(id)}
}

// ID returns the scenario this client addresses.
func (sc *ScenarioClient) ID() string { return sc.id }

// scenarioErr converts a 404 APIError into an ErrScenarioNotFound chain
// (both sentinels stay errors.Is/As-reachable); other errors pass through.
func scenarioErr(id string, err error) error {
	var apiErr *APIError
	if errors.As(err, &apiErr) && apiErr.Status == http.StatusNotFound {
		return fmt.Errorf("%w: %w: %q", err, ErrScenarioNotFound, id)
	}
	return err
}

// ReportObservations ingests one batch into the scenario; semantics as
// Client.ReportObservations (idempotency key, replay detection).
func (sc *ScenarioClient) ReportObservations(ctx context.Context, batch ObservationBatch) (*IngestResult, error) {
	if len(batch.Reports) == 0 {
		return nil, fmt.Errorf("placemonclient: empty observation batch")
	}
	if batch.BatchID == "" {
		batch.BatchID = newBatchID()
	}
	var out struct {
		Events []Event `json:"events"`
	}
	hdr, err := sc.c.do(ctx, http.MethodPost, sc.prefix+"/observations", batch, &out)
	if err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &IngestResult{
		BatchID:  batch.BatchID,
		Events:   out.Events,
		Replayed: hdr.Get("Placemond-Replayed") == "true",
		TraceID:  hdr.Get(trace.Header),
	}, nil
}

// Diagnosis fetches the scenario's rolling diagnosis.
func (sc *ScenarioClient) Diagnosis(ctx context.Context) (*DiagnosisResponse, error) {
	var out DiagnosisResponse
	if _, err := sc.c.do(ctx, http.MethodGet, sc.prefix+"/diagnosis", nil, &out); err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &out, nil
}

// Place runs one placement job on the scenario's network, charged
// against its per-scenario job quota.
func (sc *ScenarioClient) Place(ctx context.Context, req PlacementRequest) (*PlacementResult, error) {
	var out PlacementResult
	if _, err := sc.c.do(ctx, http.MethodPost, sc.prefix+"/placements", req, &out); err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &out, nil
}

// Info fetches the scenario's status row.
func (sc *ScenarioClient) Info(ctx context.Context) (*ScenarioInfo, error) {
	var out ScenarioInfo
	if _, err := sc.c.do(ctx, http.MethodGet, sc.prefix, nil, &out); err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &out, nil
}

// NetworkChange is the body of PUT /v1/scenarios/{id}/network: a
// replacement network as either a built-in topology name or an inline
// node count plus undirected edge list (the same forms a scenario
// document carries).
type NetworkChange struct {
	Topology string   `json:"topology,omitempty"`
	Nodes    int      `json:"nodes,omitempty"`
	Edges    [][2]int `json:"edges,omitempty"`
}

// ReplaceNetwork replaces the scenario's network in place: services are
// re-placed on the new network server-side (warm-started from the
// previous revision) and monitoring restarts against the new paths,
// while the scenario keeps its ID, dedup window, and audit ledger.
// Answers the refreshed status row; a scenario mid-drain or mid-update
// surfaces as a 409 APIError.
func (sc *ScenarioClient) ReplaceNetwork(ctx context.Context, change NetworkChange) (*ScenarioInfo, error) {
	var out ScenarioInfo
	if _, err := sc.c.do(ctx, http.MethodPut, sc.prefix+"/network", change, &out); err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &out, nil
}

// AuditEvent is one row of a scenario's diagnosis audit ledger: the
// emitted event pinned to its write-ahead-log record (sequence number
// and tamper-evident chain hash).
type AuditEvent struct {
	Seq       uint64     `json:"seq"`
	Hash      string     `json:"hash"`
	Time      float64    `json:"time"`
	Kind      string     `json:"kind"`
	Diagnosis *Diagnosis `json:"diagnosis,omitempty"`
}

// AuditChain is the server's fresh verification walk of its log: when
// Verified is false, Error says what broke and where.
type AuditChain struct {
	Verified    bool   `json:"verified"`
	HeadSeq     uint64 `json:"head_seq"`
	HeadHash    string `json:"head_hash"`
	Records     int    `json:"records"`
	Segments    int    `json:"segments"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Torn        bool   `json:"torn,omitempty"`
	Error       string `json:"error,omitempty"`
}

// AuditSplice records where a migrated scenario's audit chain continues
// from: the source node and the sequence/hash of the migrate-out fence
// in the source's log. Present only on scenarios adopted from a peer.
type AuditSplice struct {
	SourceNode     string `json:"source_node"`
	SourceHeadSeq  uint64 `json:"source_head_seq,omitempty"`
	SourceHeadHash string `json:"source_head_hash,omitempty"`
}

// AuditReport is GET /v1/scenarios/{id}/audit: the retained diagnosis
// events plus the chain-verification block. Splice, when set, anchors
// this node's chain to the source node's log for a migrated scenario.
type AuditReport struct {
	Scenario    string       `json:"scenario"`
	TotalEvents int          `json:"total_events"`
	Events      []AuditEvent `json:"events"`
	Chain       AuditChain   `json:"chain"`
	Splice      *AuditSplice `json:"splice,omitempty"`
}

// Audit fetches the scenario's hash-chained diagnosis audit ledger.
// limit > 0 caps the returned events to the newest limit; 0 returns the
// whole retained tail. Requires a WAL-backed daemon (-wal-dir); others
// answer 501, surfaced as an APIError.
func (sc *ScenarioClient) Audit(ctx context.Context, limit int) (*AuditReport, error) {
	path := sc.prefix + "/audit"
	if limit > 0 {
		path += fmt.Sprintf("?limit=%d", limit)
	}
	var out AuditReport
	if _, err := sc.c.do(ctx, http.MethodGet, path, nil, &out); err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &out, nil
}

// MigrateResult is POST /v1/scenarios/{id}/migrate: the handoff record
// for a scenario moved to another cluster node. HeadSeq/HeadHash name
// the migrate-out fence in the source node's WAL — the splice anchor the
// target's audit chain verifiably continues from.
type MigrateResult struct {
	Scenario        string  `json:"scenario"`
	From            string  `json:"from"`
	To              string  `json:"to"`
	HeadSeq         uint64  `json:"head_seq"`
	HeadHash        string  `json:"head_hash"`
	DurationSeconds float64 `json:"duration_seconds"`
}

// Migrate moves the scenario to the named cluster node: the source
// fences its WAL, transfers a snapshot, and thereafter answers 307 to
// the target (which this client follows transparently). Requires a
// cluster-mode daemon; single-node daemons answer 501. A scenario
// mid-drain or already migrating surfaces as a 409 APIError.
func (sc *ScenarioClient) Migrate(ctx context.Context, target string) (*MigrateResult, error) {
	req := struct {
		Target string `json:"target"`
	}{Target: target}
	var out MigrateResult
	if _, err := sc.c.do(ctx, http.MethodPost, sc.prefix+"/migrate", req, &out); err != nil {
		return nil, scenarioErr(sc.id, err)
	}
	return &out, nil
}

// --- scenario administration on the parent client ---

// CreateScenario registers a scenario from its JSON document (the
// placemon.ScenarioSpec form) under the given ID. The call is idempotent
// to retry in the HTTP sense only — a genuine duplicate answers 409,
// surfaced as an APIError.
func (c *Client) CreateScenario(ctx context.Context, id string, spec json.RawMessage) (*ScenarioInfo, error) {
	var out ScenarioInfo
	if _, err := c.do(ctx, http.MethodPut, "/v1/scenarios/"+url.PathEscape(id), spec, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// DeleteScenario drains and removes a scenario; ErrScenarioNotFound if
// it does not exist.
func (c *Client) DeleteScenario(ctx context.Context, id string) error {
	if _, err := c.do(ctx, http.MethodDelete, "/v1/scenarios/"+url.PathEscape(id), nil, nil); err != nil {
		return scenarioErr(id, err)
	}
	return nil
}

// ListScenarios fetches every hosted scenario's status row, sorted by ID.
func (c *Client) ListScenarios(ctx context.Context) ([]ScenarioInfo, error) {
	var out struct {
		Scenarios []ScenarioInfo `json:"scenarios"`
	}
	if _, err := c.do(ctx, http.MethodGet, "/v1/scenarios", nil, &out); err != nil {
		return nil, err
	}
	return out.Scenarios, nil
}
