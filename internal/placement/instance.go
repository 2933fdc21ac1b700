// Package placement implements the paper's primary contribution:
// monitoring-aware service placement (Sections II-C, V, VI, VII). An
// Instance couples a routed network with a set of services, their clients,
// and the QoS-derived candidate host sets; the algorithms in this package
// select one host per service to maximize a monitoring objective:
//
//   - Run — Algorithm 2, the 1/2-approximate greedy over the partition
//     matroid (GC, GI, GD depending on the objective), on the eager,
//     CELF lazy, or sampled engine (Options);
//   - LocalSearch / GreedyWithLocalSearch — swap-based refinement;
//   - QoS — the best-QoS baseline (minimize worst client distance);
//   - Random — the random-within-candidates baseline (RD);
//   - BruteForce / BranchAndBound — the exact optimum (BF) for small
//     instances, without and with submodular bound pruning;
//   - GreedyCapacitated — the Section VII-A extension with node capacity
//     constraints, a 1/(p+1)-approximation by Theorem 21.
package placement

import (
	"fmt"

	"repro/internal/bitset"
	"repro/internal/graph"
	"repro/internal/monitor"
	"repro/internal/qos"
	"repro/internal/routing"
)

// Service describes one service to place: a name and the client locations
// C_s interested in it.
type Service struct {
	Name    string
	Clients []graph.NodeID
}

// Unplaced marks a service without an assigned host in a Placement.
const Unplaced = -1

// Placement assigns one host per service; Hosts[s] is the node hosting
// service s, or Unplaced.
type Placement struct {
	Hosts []graph.NodeID
}

// NewPlacement returns an all-unplaced assignment for numServices.
func NewPlacement(numServices int) Placement {
	hosts := make([]graph.NodeID, numServices)
	for i := range hosts {
		hosts[i] = Unplaced
	}
	return Placement{Hosts: hosts}
}

// Complete reports whether every service has a host.
func (p Placement) Complete() bool {
	for _, h := range p.Hosts {
		if h == Unplaced {
			return false
		}
	}
	return true
}

// Clone returns an independent copy.
func (p Placement) Clone() Placement {
	return Placement{Hosts: append([]graph.NodeID(nil), p.Hosts...)}
}

// element is one ground-set member of the Section V-A1 partition matroid:
// service s placed on candidate host h, carrying its measurement paths
// P(C_s, h). Paths are held sparse — sorted node indices, memory
// proportional to hop count — because the instance keeps every
// candidate pair's paths alive at once and the dense form is O(N) per
// path, prohibitive at 10k–100k nodes.
type element struct {
	service int
	host    graph.NodeID
	// paths holds one path per client, index-aligned with
	// Service.Clients — the per-connection view the serving and
	// localization layers rely on — and is what the objective
	// evaluators consume. The paths are pairwise distinct: each ends at
	// host and is read from host's shortest-path tree, so two equal
	// paths would make each client the other's ancestor in that tree,
	// that is the same client, and the router rejects a repeated client.
	paths []*bitset.Sparse
}

// Instance is a fully prepared placement problem: the routed graph, the
// services, the candidate host sets H_s for the configured QoS slack α,
// and the precomputed measurement paths for every feasible (service, host)
// pair.
type Instance struct {
	router     *routing.Router
	services   []Service
	alpha      float64
	candidates [][]graph.NodeID
	profiles   []*qos.Profile
	elements   []element
	// elemIndex[s] maps candidate position → ground element index.
	elemIndex [][]int
}

// NewInstance validates the inputs, computes H_s per Section III-A from
// one profile sweep over every service (qos.NewProfiles), and precomputes
// P(C_s, h) for every candidate pair.
func NewInstance(r *routing.Router, services []Service, alpha float64) (*Instance, error) {
	profiles, candidates, err := profileServices(r, services, alpha)
	if err != nil {
		return nil, err
	}
	inst := &Instance{
		router:     r,
		services:   append([]Service(nil), services...),
		alpha:      alpha,
		candidates: candidates,
		profiles:   profiles,
		elemIndex:  make([][]int, len(services)),
	}
	for s, svc := range services {
		hosts := candidates[s]
		inst.elemIndex[s] = make([]int, len(hosts))
		for i, h := range hosts {
			paths, err := r.SparsePathSet(svc.Clients, h)
			if err != nil {
				return nil, fmt.Errorf("placement: service %d (%s) host %d: %w", s, svc.Name, h, err)
			}
			inst.elemIndex[s][i] = len(inst.elements)
			inst.elements = append(inst.elements, element{service: s, host: h, paths: paths})
		}
	}
	return inst, nil
}

// CandidateHosts returns H_s for every service at slack alpha, validated
// as NewInstance validates them, from the profile sweep alone: it routes
// no path and, on a hop-count network, searches no tree.
func CandidateHosts(r *routing.Router, services []Service, alpha float64) ([][]graph.NodeID, error) {
	_, candidates, err := profileServices(r, services, alpha)
	return candidates, err
}

// profileServices validates the inputs of NewInstance and CandidateHosts
// and profiles every service from one sweep, returning the profiles and
// each service's nonempty candidate set.
func profileServices(r *routing.Router, services []Service, alpha float64) ([]*qos.Profile, [][]graph.NodeID, error) {
	if r == nil {
		return nil, nil, fmt.Errorf("placement: nil router")
	}
	if len(services) == 0 {
		return nil, nil, fmt.Errorf("placement: no services")
	}
	if !(alpha >= 0 && alpha <= 1) {
		// The negated comparison also rejects NaN.
		return nil, nil, fmt.Errorf("placement: alpha %g outside [0, 1]", alpha)
	}
	clientSets := make([][]graph.NodeID, len(services))
	for s, svc := range services {
		if len(svc.Clients) == 0 {
			return nil, nil, fmt.Errorf("placement: service %d (%s) has no clients", s, svc.Name)
		}
		for _, c := range svc.Clients {
			if c < 0 || c >= r.NumNodes() {
				return nil, nil, fmt.Errorf("placement: service %d (%s): client %d outside the network's nodes [0, %d)", s, svc.Name, c, r.NumNodes())
			}
		}
		clientSets[s] = svc.Clients
	}
	// One sweep profiles every service. With every client set nonempty it
	// fails only when the graph is disconnected, and then for every
	// service alike, so the first service reports it.
	profiles, err := qos.NewProfiles(r, clientSets)
	if err != nil {
		return nil, nil, fmt.Errorf("placement: service 0 (%s): %w", services[0].Name, err)
	}
	candidates := make([][]graph.NodeID, len(services))
	for s, svc := range services {
		candidates[s] = profiles[s].CandidateHosts(alpha)
		if len(candidates[s]) == 0 {
			return nil, nil, fmt.Errorf("placement: service %d (%s): empty candidate set", s, svc.Name)
		}
	}
	return profiles, candidates, nil
}

// NumNodes returns |N| of the underlying graph.
func (inst *Instance) NumNodes() int { return inst.router.NumNodes() }

// NumServices returns |S|.
func (inst *Instance) NumServices() int { return len(inst.services) }

// Alpha returns the QoS slack the instance was built with.
func (inst *Instance) Alpha() float64 { return inst.alpha }

// Service returns the s-th service definition.
func (inst *Instance) Service(s int) Service { return inst.services[s] }

// Router returns the underlying router.
func (inst *Instance) Router() *routing.Router { return inst.router }

// Candidates returns H_s for service s (shared slice; do not mutate).
func (inst *Instance) Candidates(s int) []graph.NodeID { return inst.candidates[s] }

// Profile returns the QoS distance profile for service s.
func (inst *Instance) Profile(s int) *qos.Profile { return inst.profiles[s] }

// ServicePaths returns P(C_s, h), for a candidate host h of service s,
// as dense node sets materialized from the instance's sparse storage.
// It returns an error if h is not a candidate.
//
// The result is index-aligned with the service's Clients slice — entry i
// is the routed path of Clients[i]. Observation ingest and localization
// depend on this alignment; objective evaluation should use SparsePaths
// instead, which serves the stored sparse form without the
// O(clients × N) materialization cost.
func (inst *Instance) ServicePaths(s int, h graph.NodeID) ([]*bitset.Set, error) {
	for i, cand := range inst.candidates[s] {
		if cand == h {
			sparse := inst.elements[inst.elemIndex[s][i]].paths
			dense := make([]*bitset.Set, len(sparse))
			for j, p := range sparse {
				dense[j] = p.Dense()
			}
			return dense, nil
		}
	}
	return nil, fmt.Errorf("placement: host %d not a candidate for service %d", h, s)
}

// SparsePaths returns P(C_s, h) in the stored sparse representation,
// index-aligned with the service's Clients slice like ServicePaths but
// without materializing dense sets. The slices and sets are shared;
// treat them as read-only.
func (inst *Instance) SparsePaths(s int, h graph.NodeID) ([]*bitset.Sparse, error) {
	for i, cand := range inst.candidates[s] {
		if cand == h {
			return inst.elements[inst.elemIndex[s][i]].paths, nil
		}
	}
	return nil, fmt.Errorf("placement: host %d not a candidate for service %d", h, s)
}

// PathSet materializes the overall measurement path set ∪_s P(C_s, h_s)
// for a placement. Unplaced services contribute nothing. It returns an
// error if a placed host is outside its candidate set.
func (inst *Instance) PathSet(pl Placement) (*monitor.PathSet, error) {
	if len(pl.Hosts) != len(inst.services) {
		return nil, fmt.Errorf("placement: placement has %d hosts, want %d", len(pl.Hosts), len(inst.services))
	}
	ps := monitor.NewPathSet(inst.NumNodes())
	for s, h := range pl.Hosts {
		if h == Unplaced {
			continue
		}
		paths, err := inst.ServicePaths(s, h)
		if err != nil {
			return nil, err
		}
		if err := ps.AddAll(paths); err != nil {
			return nil, err
		}
	}
	return ps, nil
}

// Metrics summarizes the three Section II-B measures of a placement at
// k = 1, the paper's evaluation setting.
type Metrics struct {
	Coverage int   // |C(P)|
	S1       int   // |S_1(P)|
	D1       int64 // |D_1(P)|
}

// Evaluate computes the k = 1 metrics of a placement.
func (inst *Instance) Evaluate(pl Placement) (Metrics, error) {
	ps, err := inst.PathSet(pl)
	if err != nil {
		return Metrics{}, err
	}
	pt := monitor.NewPartitionFromPaths(ps)
	return Metrics{Coverage: pt.Coverage(), S1: pt.S1(), D1: pt.D1()}, nil
}

// WorstRelativeDistance returns max_s d̄(C_s, h_s): the worst QoS
// degradation across services, the placement's position on the
// monitoring-QoS tradeoff curve. Unplaced services are skipped.
func (inst *Instance) WorstRelativeDistance(pl Placement) float64 {
	worst := 0.0
	for s, h := range pl.Hosts {
		if h == Unplaced {
			continue
		}
		if d := inst.profiles[s].RelativeDistance(h); d > worst {
			worst = d
		}
	}
	return worst
}
