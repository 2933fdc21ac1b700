package placemon

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/placement"
	"repro/internal/registry"
	"repro/internal/server"
)

// NetworkChange is the body of PUT /v1/scenarios/{id}/network and the
// argument of Server.ReplaceScenarioNetwork: a replacement network in
// the same form ScenarioSpec carries one — a built-in topology name, or
// an inline node count plus undirected edge list. The scenario keeps its
// ID, services, QoS slack, failure budget, dedup window, and audit
// ledger; services are re-placed on the new network by the warm-start
// engine and monitoring restarts against the new paths.
type NetworkChange struct {
	// Topology names a built-in topology (see TopologyNames); empty means
	// the network is given inline by Nodes/Edges.
	Topology string `json:"topology,omitempty"`
	// Nodes and Edges describe the replacement network inline.
	Nodes int      `json:"nodes,omitempty"`
	Edges [][2]int `json:"edges,omitempty"`
}

// reviserCacheCap bounds the per-scenario warm-placer cache. Evicting
// everything past the cap is crude but safe: a warm miss only costs the
// cold initial sweep, never correctness.
const reviserCacheCap = 64

// newNetworkReviser returns the server.ReviseFunc the facade installs —
// stored scenario document plus NetworkChange body in, fully revised
// document out — together with a prewarm function that charges the same
// per-scenario gain cache from a scenario document alone. Re-placement
// runs the warm-start engine with that cache, so successive revisions of
// a large scenario only re-evaluate candidates whose measurement paths
// actually changed; the result is still bit-identical to a cold greedy
// run on the new network. The prewarm hook is how a cluster node that
// just adopted a migrated scenario gets the same warm revisions the
// source node had: the serving layer calls it in the background after an
// adopt, and a failure only costs the cold first revision.
func newNetworkReviser() (server.ReviseFunc, func(id string, spec []byte)) {
	var mu sync.Mutex
	warm := map[string]*placement.WarmPlacer{}
	placerFor := func(id string) *placement.WarmPlacer {
		mu.Lock()
		defer mu.Unlock()
		if w, ok := warm[id]; ok {
			return w
		}
		if len(warm) >= reviserCacheCap {
			warm = map[string]*placement.WarmPlacer{}
		}
		w := placement.NewWarmPlacer()
		warm[id] = w
		return w
	}
	prewarm := func(id string, spec []byte) {
		sp, err := ParseScenarioSpec(spec)
		if err != nil {
			return
		}
		nw, err := sp.Network()
		if err != nil {
			return
		}
		inst, obj, err := nw.prepare(sp.Placement.ToServices(),
			PlaceConfig{Alpha: sp.Placement.Alpha})
		if err != nil {
			return
		}
		_, _ = placement.Run(context.Background(), inst, obj, warmOptions(placerFor(id)))
	}
	revise := func(id string, spec, change []byte) ([]byte, error) {
		sp, err := ParseScenarioSpec(spec)
		if err != nil {
			return nil, err
		}
		var ch NetworkChange
		dec := json.NewDecoder(bytes.NewReader(change))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&ch); err != nil {
			return nil, fmt.Errorf("placemon: decode network change: %w", err)
		}
		if ch.Topology == "" && ch.Nodes <= 0 {
			return nil, fmt.Errorf("placemon: network change names no network (topology or nodes/edges)")
		}
		revised := sp
		// A change carries no weights: the revised network routes by hop
		// count.
		revised.Topology, revised.Nodes, revised.Edges, revised.Weights = ch.Topology, ch.Nodes, ch.Edges, nil
		revised.Placement.Topology = ch.Topology
		nw, err := revised.Network()
		if err != nil {
			return nil, err
		}
		inst, obj, err := nw.prepare(revised.Placement.ToServices(),
			PlaceConfig{Alpha: revised.Placement.Alpha})
		if err != nil {
			return nil, err
		}
		res, err := placement.Run(context.Background(), inst, obj, warmOptions(placerFor(id)))
		if err != nil {
			return nil, fmt.Errorf("placemon: re-place scenario %s: %w", id, err)
		}
		revised.Placement.Hosts = append([]int(nil), res.Placement.Hosts...)
		out, err := json.Marshal(revised)
		if err != nil {
			return nil, fmt.Errorf("placemon: encode revised scenario spec: %w", err)
		}
		return out, nil
	}
	return revise, prewarm
}

// warmOptions runs the lazy engine warm-started from w, fanned out over
// every CPU: re-placement is an operator request the daemon answers
// while it waits.
func warmOptions(w *placement.WarmPlacer) placement.Options {
	return placement.Options{Workers: runtime.GOMAXPROCS(0), Warm: w}
}

// ReplaceScenarioNetwork revises a hosted scenario's network in place:
// the new network is built, the scenario's services are re-placed on it
// (warm-started from the previous revision's marginal gains), and
// monitoring restarts against the new paths while the scenario keeps its
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
