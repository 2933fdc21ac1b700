package placemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"

	"repro/internal/placement"
	"repro/internal/registry"
	"repro/internal/server"
)

// NetworkChange is the body of PUT /v1/scenarios/{id}/network and the
// argument of Server.ReplaceScenarioNetwork: a replacement network in
// the same form ScenarioSpec carries one — a built-in topology name, or
// an inline node count plus undirected edge list. The scenario keeps its
// ID, services, QoS slack, failure budget, dedup window, and audit
// ledger; services are re-placed on the new network by the same cold
// lazy greedy a placement request runs, and monitoring restarts against
// the new paths.
type NetworkChange struct {
	// Topology names a built-in topology (see TopologyNames); empty means
	// the network is given inline by Nodes/Edges.
	Topology string `json:"topology,omitempty"`
	// Nodes and Edges describe the replacement network inline.
	Nodes int      `json:"nodes,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
}

// reviser returns the server.ReviseFunc of scenario id, described by sp
// and routed on nw: NetworkChange body in, fully revised document and
// the tenant it builds out. It revises from nw itself, never from the
// stored document, and keeps only sp's failure budget and placement
// besides: a change replaces the whole network. An inline change of the
// same node count routes the revised network from nw's trees (see
// routing.NewRevised), which it releases before returning, so the
// revision keeps nothing of nw alive. Re-placement is a cold, sequential
// lazy run on the new network. The tenant comes from the network and
// instance the re-placement routed: the same validation, paths and place
// function buildScenario derives from the revised document, which is
// what boot replay rebuilds from, without parsing and routing the
// document a second time. It carries its own reviser, bound to the
// revised network.
func (nw *Network) reviser(id string, sp ScenarioSpec) server.ReviseFunc {
	base := ScenarioSpec{K: sp.K, Placement: sp.Placement}
	return func(change []byte) ([]byte, *server.TenantConfig, error) {
		_, doc, tc, err := nw.revise(id, base, change)
		return doc, tc, err
	}
}

// revise is the reviser's work on base, the scenario without its
// network. It also returns the revised network.
func (nw *Network) revise(id string, base ScenarioSpec, change []byte) (*Network, []byte, *server.TenantConfig, error) {
	var ch NetworkChange
	if err := decodeStrict(bytes.NewReader(change), &ch); err != nil {
		return nil, nil, nil, fmt.Errorf("placemon: decode network change: %w", err)
	}
	if ch.Topology == "" && ch.Nodes <= 0 {
		return nil, nil, nil, fmt.Errorf("placemon: network change names no network (topology or nodes/edges)")
	}
	revised := base
	// A change carries no weights: the revised network routes by hop
	// count.
	revised.Topology, revised.Nodes, revised.Edges = ch.Topology, ch.Nodes, ch.Edges
	revised.Placement.Topology = ch.Topology
	next, err := revised.networkFrom(nw)
	if err != nil {
		return nil, nil, nil, err
	}
	defer next.router.Detach()
	services := revised.Placement.ToServices()
	inst, obj, err := next.prepare(services, PlaceConfig{Alpha: revised.Placement.Alpha})
	if err != nil {
		return nil, nil, nil, err
	}
	res, err := placement.Run(context.Background(), inst, obj, placement.Options{})
	if err != nil {
		return nil, nil, nil, fmt.Errorf("placemon: re-place scenario %s: %w", id, err)
	}
	revised.Placement.Hosts = append([]int(nil), res.Placement.Hosts...)
	// The checks buildScenario makes of the revised document.
	if err := revised.validate(); err != nil {
		return nil, nil, nil, err
	}
	if err := revised.Placement.Validate(next); err != nil {
		return nil, nil, nil, err
	}
	paths, conns, err := monitoredPaths(inst, services, revised.Placement.Hosts)
	if err != nil {
		return nil, nil, nil, err
	}
	out, err := json.Marshal(revised)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("placemon: encode revised scenario spec: %w", err)
	}
	return next, out, tenantConfig(id, next, revised, paths, conns), nil
}

// ReplaceScenarioNetwork revises a hosted scenario's network in place:
// the new network is built, the scenario's services are re-placed on it
// by a cold lazy greedy run, and monitoring restarts against the new paths while the scenario keeps its
// identity, dedup window, and audit ledger. Errors wrap
// ErrScenarioNotFound; revision and build failures surface as-is.
func (s *Server) ReplaceScenarioNetwork(id string, change NetworkChange) error {
	raw, err := json.Marshal(change)
	if err != nil {
		return fmt.Errorf("placemon: encode network change: %w", err)
	}
	if err := s.inner.ReplaceScenarioNetwork(id, raw); err != nil {
		if errors.Is(err, registry.ErrNotFound) {
			return fmt.Errorf("%w: %q", ErrScenarioNotFound, id)
		}
		return fmt.Errorf("placemon: replace scenario %s network: %w", id, err)
	}
	return nil
}
