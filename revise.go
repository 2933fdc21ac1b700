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

// newNetworkReviser returns the server.ReviseFunc the facade installs:
// stored scenario document plus NetworkChange body in, fully revised
// document and the tenant it builds out. Re-placement is a cold,
// sequential lazy run on the new network, so it keeps no state between
// revisions. The tenant comes from the network and instance the
// re-placement routed: the same validation, paths and place function
// buildScenario derives from the revised document, which is what boot
// replay rebuilds from, without parsing and routing the document a
// second time.
func newNetworkReviser() server.ReviseFunc {
	revise := func(id string, spec, change []byte) ([]byte, *server.TenantConfig, error) {
		sp, err := ParseScenarioSpec(spec)
		if err != nil {
			return nil, nil, err
		}
		var ch NetworkChange
		if err := decodeStrict(bytes.NewReader(change), &ch); err != nil {
			return nil, nil, fmt.Errorf("placemon: decode network change: %w", err)
		}
		if ch.Topology == "" && ch.Nodes <= 0 {
			return nil, nil, fmt.Errorf("placemon: network change names no network (topology or nodes/edges)")
		}
		revised := sp
		// A change carries no weights: the revised network routes by hop
		// count.
		revised.Topology, revised.Nodes, revised.Edges, revised.Weights = ch.Topology, ch.Nodes, ch.Edges, nil
		revised.Placement.Topology = ch.Topology
		nw, err := revised.Network()
		if err != nil {
			return nil, nil, err
		}
		services := revised.Placement.ToServices()
		inst, obj, err := nw.prepare(services, PlaceConfig{Alpha: revised.Placement.Alpha})
		if err != nil {
			return nil, nil, err
		}
		res, err := placement.Run(context.Background(), inst, obj, placement.Options{})
		if err != nil {
			return nil, nil, fmt.Errorf("placemon: re-place scenario %s: %w", id, err)
		}
		revised.Placement.Hosts = append([]int(nil), res.Placement.Hosts...)
		// The checks buildScenario makes of the revised document.
		if err := revised.validate(); err != nil {
			return nil, nil, err
		}
		if err := revised.Placement.Validate(nw); err != nil {
			return nil, nil, err
		}
		paths, conns, err := monitoredPaths(inst, services, revised.Placement.Hosts)
		if err != nil {
			return nil, nil, err
		}
		out, err := json.Marshal(revised)
		if err != nil {
			return nil, nil, fmt.Errorf("placemon: encode revised scenario spec: %w", err)
		}
		return out, &server.TenantConfig{
			NumNodes:    nw.NumNodes(),
			K:           revised.K,
			Paths:       paths,
			Connections: conns,
			Place:       nw.placeFunc(),
		}, nil
	}
	return revise
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
