package placemon

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"time"

	"repro/internal/bitset"
	"repro/internal/placement"
	"repro/internal/server"
	"repro/internal/trace"
)

// This file is the serving side of the facade: it turns a Network plus a
// deployed placement (the PlacementFile document persist.go defines) into
// a runnable monitoring service — the placemond daemon — without exposing
// any internal package in the API.

// ServerConfig parameterizes NewServer. The zero value is a sensible
// production default.
type ServerConfig struct {
	// K is the failure budget of the rolling diagnosis (default 1). A
	// scenario diagnoses at each connection state change during an
	// outage, while ingesting the report; a diagnosis read only copies
	// the result.
	K int
	// Workers sizes the placement worker pool (default: half the CPUs).
	Workers int
	// QueueDepth bounds the placement job backlog; a full queue answers
	// 429 (default 8).
	QueueDepth int
	// RequestTimeout bounds each API request (default 15s).
	RequestTimeout time.Duration
	// DrainTimeout bounds graceful shutdown (default 10s).
	DrainTimeout time.Duration
	// DedupWindow sizes the idempotent-ingest window: how many recent
	// batch IDs are remembered so retried observation batches replay
	// their original response instead of re-applying (default 1024;
	// ≤ -1 disables).
	DedupWindow int
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool
	// Logger receives structured request and error records; nil discards
	// them. Every record carries the request's trace ID.
	Logger *slog.Logger
	// SlowRequest is the latency at or above which a request additionally
	// logs a warning (default 1s; ≤ -1 disables).
	SlowRequest time.Duration
	// TraceBuffer sizes the /debug/traces ring of recent request traces
	// (default 64; ≤ -1 disables the ring and the endpoint). Each scenario
	// additionally gets its own ring of the same size.
	TraceBuffer int

	// WALDir, when non-empty, persists the daemon's full mutable state —
	// scenarios, monitoring state, dedup windows, the diagnosis audit
	// ledger — through a write-ahead log under this directory: every
	// mutation is durable before its HTTP response is acknowledged, and
	// boot replays snapshot + log tail. A WAL write failure flips the
	// daemon read-only (503 + Placemond-Read-Only) instead of crashing
	// it. Empty keeps scenarios in memory for the process lifetime only.
	WALDir string
	// WALSync is the append durability policy: "always" (default) or
	// "group", two names for one mode in which a mutation is acknowledged
	// only once an fsync covers it and concurrent writers share the
	// fsync, or "none" (fsync only on rotation and shutdown).
	WALSync string
	// WALSegmentBytes overrides the log's segment rotation threshold
	// (default 4 MiB, minimum 4 KiB).
	WALSegmentBytes int64
	// MaxScenarios caps concurrently hosted scenarios (default 64).
	MaxScenarios int
	// TenantSeriesCap caps tenant-labeled metric cardinality: the first
	// cap scenarios get their own series, later ones share the
	// tenant="other" bucket (default 32; ≤ -1 removes the cap).
	TenantSeriesCap int
	// MaxJobsPerScenario caps one scenario's queued-plus-running placement
	// jobs; the excess is rejected with 429 so a noisy tenant cannot
	// monopolize the shared worker pool (default: the whole pool;
	// < 0 removes the quota).
	MaxJobsPerScenario int

	// NodeID, when non-empty, runs the daemon in cluster mode as the named
	// member of the static membership Peers describes. Scenario ownership
	// is decided by a consistent-hash ring over the member IDs; requests
	// for scenarios this node does not own answer 307 to the owner (or are
	// proxied, see ClusterProxy). Must be set together with Peers.
	NodeID string
	// Peers is the shared membership specification, comma-separated
	// "id=url" entries (e.g. "a=http://h1:8080,b=http://h2:8080"). Every
	// node must be started with the same list, which must include its own
	// NodeID. Must be set together with NodeID.
	Peers string
	// ClusterProxy makes non-owner nodes proxy scenario requests to the
	// owner peer-to-peer instead of answering 307, for clients that cannot
	// follow redirects. Default false (redirect).
	ClusterProxy bool
	// ForceAdopt lets a booting cluster node keep serving persisted
	// scenarios whose ring owner is another node (it logs a warning per
	// scenario instead of refusing to start). An escape hatch for membership
	// changes; the owned-elsewhere scenarios should then be migrated off.
	ForceAdopt bool
}

// Server is the placemond HTTP monitoring service. Built with NewServer
// it seeds one scenario at boot, the "default" one the legacy
// single-scenario routes address; like a NewScenarioServer-built one, it
// hosts any number of further named scenarios, each with fully isolated
// monitoring state. See cmd/placemond for the standalone binary.
type Server struct {
	inner *server.Server
}

// buildMonitoring turns the placement document of a parsed scenario
// spec (one host per service) into the serving layer's path and
// connection lists: the routed (client, host) pair of every placed
// service, in the same order Network.Observe reports them. Every
// scenario, the default one included, is built through it, or through
// its second half, monitoredPaths, by the network reviser, which has
// already prepared the instance to re-place the services. So a scenario
// monitors exactly what Network.Observe describes.
func buildMonitoring(nw *Network, doc PlacementFile) (paths []*bitset.Set, conns []server.Connection, err error) {
	services := doc.ToServices()
	if err := doc.Validate(nw); err != nil {
		return nil, nil, err
	}
	inst, _, err := nw.prepare(services, PlaceConfig{Alpha: doc.Alpha})
	if err != nil {
		return nil, nil, err
	}
	return monitoredPaths(inst, services, doc.Hosts)
}

// monitoredPaths is buildMonitoring's second half: the routed paths and
// connections of hosts, one host per service, on the instance prepared
// for services.
func monitoredPaths(inst *placement.Instance, services []Service, hosts []int) (paths []*bitset.Set, conns []server.Connection, err error) {
	for s, h := range hosts {
		if h == placement.Unplaced {
			continue
		}
		ps, err := inst.ServicePaths(s, h)
		if err != nil {
			return nil, nil, fmt.Errorf("placemon: %w", err)
		}
		for i, p := range ps {
			paths = append(paths, p)
			conns = append(conns, server.Connection{Service: s, Client: services[s].Clients[i], Host: h})
		}
	}
	if len(paths) == 0 {
		return nil, nil, fmt.Errorf("placemon: placement has no monitored connections")
	}
	return paths, conns, nil
}

// NewServer builds the service for the placement described by doc, whose
// services and hosts must be valid for nw at doc.Alpha. The deployment
// becomes the server's "default" scenario: its document lists nw inline
// (see ScenarioSpec), and the server builds, logs and serves it like any
// other. The monitored connections are the routed (client, host) pairs of
// every placed service, in the same order Network.Observe reports them;
// connection indices in the ingest API refer to that order (see
// Server.Connections). Further scenarios may be added dynamically (see
// AddScenario and the /v1/scenarios API).
//
// With WALDir set, a log that already holds "default" must hold this same
// document, or NewServer refuses to boot; NewScenarioServer serves the
// logged one instead.
func NewServer(nw *Network, doc PlacementFile, cfg ServerConfig) (*Server, error) {
	if nw == nil {
		return nil, fmt.Errorf("placemon: NewServer: nil network")
	}
	spec, err := json.Marshal(inlineSpec(nw, doc))
	if err != nil {
		return nil, fmt.Errorf("placemon: encode default scenario: %w", err)
	}
	return newServer(cfg, spec)
}

// placeFunc adapts Network.Place to the serving layer's job signature.
// Network methods are safe for concurrent use, so the closure is too.
// The request's trace span (carried by ctx into the worker pool) receives
// one stage per engine round, which the serving layer also folds into the
// round-duration histogram.
func (nw *Network) placeFunc() server.PlaceFunc {
	return func(ctx context.Context, req server.PlacementRequest) (*server.PlacementResult, error) {
		services := make([]Service, len(req.Services))
		for i, s := range req.Services {
			services[i] = Service{Name: s.Name, Clients: s.Clients}
		}
		var progress func(RoundProgress)
		if sp := trace.FromContext(ctx); sp != nil {
			progress = func(r RoundProgress) {
				sp.AddStage(fmt.Sprintf("placement round %d", r.Round), r.Duration,
					fmt.Sprintf("service=%d host=%d gain=%g candidates=%d evaluations=%d",
						r.Service, r.Host, r.Gain, r.Candidates, r.Evaluations))
			}
		}
		res, err := nw.Place(services, PlaceConfig{
			Alpha:     req.Alpha,
			Objective: ObjectiveKind(req.Objective),
			Algorithm: Algorithm(req.Algorithm),
			K:         req.K,
			Seed:      req.Seed,
			Progress:  progress,
			// The request context rides into the engine so a timed-out,
			// canceled, or drained job stops at the next round boundary.
			Context: ctx,
		})
		if err != nil {
			return nil, err
		}
		return &server.PlacementResult{
			Hosts:                 res.Hosts,
			Objective:             res.Objective,
			Coverage:              res.Coverage,
			Identifiable:          res.Identifiable,
			Distinguishable:       res.Distinguishable,
			WorstRelativeDistance: res.WorstRelativeDistance,
			Evaluations:           res.Evaluations,
		}, nil
	}
}

// Connections returns the default scenario's monitored (client, host)
// pairs in ingest-index order: POST /v1/observations report entries name
// connections by their position in this slice. It follows a network
// replacement, and is nil while this node hosts no default scenario.
func (s *Server) Connections() []Connection {
	var out []Connection
	for _, c := range s.inner.Connections(server.DefaultScenario) {
		out = append(out, Connection(c))
	}
	return out
}

// Handler returns the service's HTTP handler — the full API with
// middleware — for mounting under a custom server or httptest.
func (s *Server) Handler() http.Handler { return s.inner.Handler() }

// Serve accepts connections on ln until ctx is canceled, then drains
// gracefully: in-flight requests complete (bounded by DrainTimeout) and
// queued placement jobs finish. Returns nil on a clean drain.
func (s *Server) Serve(ctx context.Context, ln net.Listener) error {
	return s.inner.Serve(ctx, ln)
}

// Close releases the worker pool without serving and, when the daemon
// persists state (WALDir), writes the final snapshot; a
// non-nil error means that snapshot failed and the daemon should exit
// non-zero. Idempotent, and implied by Serve returning.
func (s *Server) Close() error { return s.inner.Close() }

// Abort releases resources without the final fsync or snapshot — the
// emergency-shutdown path. State durability is whatever the WAL sync
// policy already provided.
func (s *Server) Abort() { s.inner.Abort() }

// ReadOnly reports whether a WAL write failure has frozen mutations
// (mutating requests answer 503 with Placemond-Read-Only until restart).
func (s *Server) ReadOnly() bool { return s.inner.ReadOnly() }

// VerifyIncremental cross-checks every scenario's rolling diagnosis,
// the one its monitor keeps and GET …/diagnosis serves, against a
// from-scratch recompute and reports the first divergence. The daemon never needs this in normal operation — the
// incremental path is exact by construction — but soak and crash
// harnesses call it to prove that exactness under hostile schedules.
func (s *Server) VerifyIncremental() error { return s.inner.VerifyIncremental() }

// StateExport returns the daemon's replayable state as deterministic
// JSON — the same document WAL compaction folds into snapshots. Two
// servers that ingested the same operation stream export identical
// bytes; crash harnesses lean on that.
func (s *Server) StateExport() ([]byte, error) { return s.inner.StateExport() }

// WriteMetrics renders the server's metrics in the Prometheus text
// exposition format (the same payload GET /metrics serves).
func (s *Server) WriteMetrics(w io.Writer) error {
	return s.inner.Registry().WriteText(w)
}
