package placemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/bitset"
	"repro/internal/cluster"
	"repro/internal/registry"
	"repro/internal/server"
	"repro/internal/wal"
)

// This file is the multi-tenant side of the serving facade: a
// ScenarioSpec document describes one complete monitoring scenario — a
// network plus a deployed placement — and the daemon hosts many of them
// at once, each under its own ID with fully isolated state (see the
// README's Multi-tenancy section).

// Scenario administration errors. AddScenario and RemoveScenario wrap
// these so callers can errors.Is without reaching into internal packages.
var (
	// ErrScenarioExists means the ID is already registered.
	ErrScenarioExists = errors.New("placemon: scenario already exists")
	// ErrScenarioNotFound means no scenario has the ID.
	ErrScenarioNotFound = errors.New("placemon: scenario not found")
	// ErrScenarioLimit means the server is at its MaxScenarios cap.
	ErrScenarioLimit = errors.New("placemon: scenario limit reached")
)

// ScenarioSpec is the JSON scenario document the multi-tenant daemon
// accepts over PUT /v1/scenarios/{id}, logs in its write-ahead log, and
// rebuilds from at boot. NewServer writes one for the default scenario.
// It is self-contained: the network comes from either a built-in topology
// name or an inline edge list, and the placement document carries the
// services and hosts to monitor.
type ScenarioSpec struct {
	// Topology names a built-in topology (see TopologyNames). Empty means
	// the network is given inline by Nodes/Edges, or — when those are
	// empty too — named by Placement.Topology.
	Topology string `json:"topology,omitempty"`
	// Nodes and Edges describe a custom network inline: Nodes is the node
	// count and each edge is an undirected [u, v] pair.
	Nodes int      `json:"nodes,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
	// Weights, when present, are the inline edges' routing weights,
	// index-aligned with Edges; absent, every edge weighs 1 (hop-count
	// routing). Allowed only with an inline network.
	Weights []float64 `json:"weights,omitempty"`
	// K is the scenario's failure budget for the rolling diagnosis
	// (0 means the server default).
	K int `json:"k,omitempty"`
	// Placement is the deployed placement to monitor, in the same
	// document form SavePlacement writes.
	Placement PlacementFile `json:"placement"`
}

// Network builds the spec's network: Topology if named, else the inline
// Nodes/Edges (and Weights), else the topology the placement document
// names.
func (sp ScenarioSpec) Network() (*Network, error) { return sp.networkFrom(nil) }

// networkFrom is Network for a revision of prev: an inline network is
// routed from prev's trees where it can (see finishNetwork). A named
// topology is built and routed afresh.
func (sp ScenarioSpec) networkFrom(prev *Network) (*Network, error) {
	if err := sp.checkWeights(); err != nil {
		return nil, err
	}
	switch {
	case sp.Topology != "":
		return BuildTopology(sp.Topology)
	case sp.Nodes > 0:
		edges := make([]Edge, len(sp.Edges))
		for i, e := range sp.Edges {
			edges[i] = Edge{U: e[0], V: e[1]}
		}
		return newNetwork(sp.Nodes, edges, sp.Weights, prev)
	case sp.Placement.Topology != "":
		return BuildTopology(sp.Placement.Topology)
	default:
		return nil, fmt.Errorf("placemon: scenario spec names no network (topology, nodes/edges, or placement.topology)")
	}
}

// checkWeights rejects a Weights list that is not index-aligned with an
// inline edge list.
func (sp ScenarioSpec) checkWeights() error {
	switch {
	case len(sp.Weights) == 0:
		return nil
	case sp.Topology != "" || sp.Nodes == 0:
		return fmt.Errorf("placemon: scenario spec: weights need an inline network (nodes and edges), not a named topology")
	case len(sp.Weights) != len(sp.Edges):
		return fmt.Errorf("placemon: scenario spec: %d weights for %d edges", len(sp.Weights), len(sp.Edges))
	}
	return nil
}

// inlineSpec is the scenario document of doc deployed on nw, with nw
// listed inline: its nodes and edges, and the edges' weights when any
// weighs other than 1. K is left 0, the server default. NewServer seeds
// the default scenario with it.
func inlineSpec(nw *Network, doc PlacementFile) ScenarioSpec {
	sp := ScenarioSpec{Nodes: nw.NumNodes(), Placement: doc}
	weighted := false
	for _, e := range nw.g.Edges() {
		sp.Edges = append(sp.Edges, [2]int{e.U, e.V})
		sp.Weights = append(sp.Weights, e.Weight)
		weighted = weighted || e.Weight != 1
	}
	if !weighted {
		sp.Weights = nil
	}
	return sp
}

// ParseScenarioSpec decodes and structurally validates a scenario
// document: strict JSON, then the same placement invariants LoadPlacement
// enforces. Network-dependent bounds are checked when the scenario is
// built.
func ParseScenarioSpec(raw []byte) (ScenarioSpec, error) {
	var sp ScenarioSpec
	if err := decodeStrict(bytes.NewReader(raw), &sp); err != nil {
		return sp, fmt.Errorf("placemon: decode scenario spec: %w", err)
	}
	return sp, sp.validate()
}

// validate is ParseScenarioSpec's structural check of a decoded spec.
func (sp ScenarioSpec) validate() error {
	if sp.Nodes < 0 {
		return fmt.Errorf("placemon: scenario spec: negative node count %d", sp.Nodes)
	}
	if sp.K < 0 {
		return fmt.Errorf("placemon: scenario spec: negative failure budget %d", sp.K)
	}
	if err := sp.checkWeights(); err != nil {
		return err
	}
	// Round-trip the placement through its own loader so a scenario spec
	// cannot smuggle in a document SavePlacement/LoadPlacement would
	// reject.
	var buf bytes.Buffer
	if err := SavePlacement(&buf, sp.Placement); err != nil {
		return err
	}
	_, err := LoadPlacement(&buf)
	return err
}

// buildScenario is the server.BuildFunc the facade installs: document in,
// isolated monitoring state out. It is pure — the same document always
// builds an equivalent tenant — which is what makes rebuilding scenarios
// from the write-ahead log at boot sound.
func buildScenario(id string, raw []byte) (*server.TenantConfig, error) {
	sp, err := ParseScenarioSpec(raw)
	if err != nil {
		return nil, err
	}
	nw, err := sp.Network()
	if err != nil {
		return nil, err
	}
	paths, conns, err := buildMonitoring(nw, sp.Placement)
	if err != nil {
		return nil, err
	}
	return tenantConfig(id, nw, sp, paths, conns), nil
}

// tenantConfig is the tenant of scenario id, described by sp and routed
// on nw, monitoring paths and conns: its place function and its reviser
// both close over nw.
func tenantConfig(id string, nw *Network, sp ScenarioSpec, paths []*bitset.Set, conns []server.Connection) *server.TenantConfig {
	return &server.TenantConfig{
		NumNodes:    nw.NumNodes(),
		K:           sp.K,
		Paths:       paths,
		Connections: conns,
		Place:       nw.placeFunc(),
		Revise:      nw.reviser(id, sp),
	}
}

// NewScenarioServer builds a multi-tenant monitoring service with no
// boot document: every scenario is created dynamically (AddScenario or
// PUT /v1/scenarios/{id}) or recovered from cfg.WALDir at boot, a
// "default" one included. The legacy single-scenario routes answer 404
// until a scenario named "default" exists.
func NewScenarioServer(cfg ServerConfig) (*Server, error) { return newServer(cfg, nil) }

// newServer builds the serving layer from cfg and the default scenario's
// boot document (nil for none).
func newServer(cfg ServerConfig, defaultSpec []byte) (*Server, error) {
	sc, err := cfg.innerConfig()
	if err != nil {
		return nil, err
	}
	sc.DefaultSpec = defaultSpec
	inner, err := server.New(sc)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return &Server{inner: inner}, nil
}

// innerConfig translates the facade knobs shared by NewServer and
// NewScenarioServer, including the multi-tenant, cluster and
// write-ahead log ones.
func (cfg ServerConfig) innerConfig() (server.Config, error) {
	sc := server.Config{
		K:                  cfg.K,
		Workers:            cfg.Workers,
		QueueDepth:         cfg.QueueDepth,
		RequestTimeout:     cfg.RequestTimeout,
		DrainTimeout:       cfg.DrainTimeout,
		DedupWindow:        cfg.DedupWindow,
		EnablePprof:        cfg.EnablePprof,
		Logger:             cfg.Logger,
		SlowRequest:        cfg.SlowRequest,
		TraceBuffer:        cfg.TraceBuffer,
		BuildScenario:      buildScenario,
		MaxScenarios:       cfg.MaxScenarios,
		TenantSeriesCap:    cfg.TenantSeriesCap,
		MaxJobsPerScenario: cfg.MaxJobsPerScenario,
	}
	if (cfg.NodeID == "") != (cfg.Peers == "") {
		return sc, fmt.Errorf("placemon: NodeID and Peers must be set together (got node ID %q, peers %q)", cfg.NodeID, cfg.Peers)
	}
	if cfg.NodeID != "" {
		members, err := cluster.New(cfg.NodeID, cfg.Peers)
		if err != nil {
			return sc, fmt.Errorf("placemon: %w", err)
		}
		sc.Cluster = &server.ClusterConfig{
			Membership: members,
			Proxy:      cfg.ClusterProxy,
			ForceAdopt: cfg.ForceAdopt,
		}
	}
	if cfg.WALDir != "" {
		mode, err := wal.ParseSyncMode(cfg.WALSync)
		if err != nil {
			return sc, fmt.Errorf("placemon: %w", err)
		}
		sc.WAL = &server.WALConfig{
			Dir:          cfg.WALDir,
			Sync:         mode,
			SegmentBytes: cfg.WALSegmentBytes,
		}
	}
	return sc, nil
}

// AddScenario registers a new scenario, logging it first when WALDir is
// set. The ID must match [a-zA-Z0-9._-]{1,64} without a leading dot;
// errors wrap ErrScenarioExists and ErrScenarioLimit.
func (s *Server) AddScenario(id string, spec ScenarioSpec) error {
	raw, err := json.Marshal(spec)
	if err != nil {
		return fmt.Errorf("placemon: encode scenario spec: %w", err)
	}
	if err := s.inner.CreateScenario(id, raw); err != nil {
		switch {
		case errors.Is(err, registry.ErrExists):
			return fmt.Errorf("%w: %q", ErrScenarioExists, id)
		case errors.Is(err, registry.ErrFull):
			return fmt.Errorf("%w (adding %q)", ErrScenarioLimit, id)
		}
		return fmt.Errorf("placemon: add scenario %s: %w", id, err)
	}
	return nil
}

// RemoveScenario drains and deletes a scenario: new requests for it are
// rejected at once, in-flight placement jobs get up to the drain timeout
// (bounded further by ctx), and the persisted document is removed so the
// scenario stays gone across restarts. Errors wrap ErrScenarioNotFound.
func (s *Server) RemoveScenario(ctx context.Context, id string) error {
	if err := s.inner.RemoveScenario(ctx, id); err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return fmt.Errorf("%w: %q", ErrScenarioNotFound, id)
		}
		return fmt.Errorf("placemon: remove scenario %s: %w", id, err)
	}
	return nil
}

// Scenarios returns the hosted scenario IDs, sorted.
func (s *Server) Scenarios() []string { return s.inner.ScenarioIDs() }
