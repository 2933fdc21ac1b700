// Package placemon is a library for monitoring-aware service placement,
// reproducing "Service Placement for Detecting and Localizing Failures
// Using End-to-End Observations" (He et al., ICDCS 2016).
//
// The workflow has three stages:
//
//  1. Describe the network: BuildTopology (the paper's calibrated ISP
//     maps), NewNetwork (your own edge list), or Load (edge-list file).
//  2. Place services: Network.Place selects a host for each service from
//     the QoS-feasible candidates, maximizing a failure-monitoring
//     objective (coverage, identifiability, or distinguishability) with
//     the paper's 1/2-approximate greedy, or using the QoS/random/brute-
//     force baselines.
//  3. Operate: Network.Observe turns ground-truth failures into the binary
//     connection states the service layer sees, and Network.Localize runs
//     Boolean tomography over those states to diagnose the failure.
//
// All computations are deterministic; randomized algorithms take explicit
// seeds.
package placemon

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"repro/internal/combinat"
	"repro/internal/graph"
	"repro/internal/placement"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Network is an immutable routed service network. Create it with
// NewNetwork, BuildTopology, or Load; methods are safe for concurrent use.
type Network struct {
	g      *graph.Graph
	router *routing.Router
	// clients are suggested client locations (dangling nodes for built-in
	// topologies); may be empty for custom networks.
	clients []int
}

// Edge is an undirected network link for NewNetwork.
type Edge struct {
	U, V int
}

// NewNetwork builds a network with numNodes nodes and the given undirected
// edges. The graph must be connected, simple, and loop-free.
func NewNetwork(numNodes int, edges []Edge) (*Network, error) {
	return newNetwork(numNodes, edges, nil, nil)
}

// newNetwork is NewNetwork with per-edge routing weights, index-aligned
// with edges (nil weights mean every edge weighs 1), routed from prev's
// trees where it can (see finishNetwork; nil prev routes from scratch).
func newNetwork(numNodes int, edges []Edge, weights []float64, prev *Network) (*Network, error) {
	if numNodes < 0 {
		return nil, fmt.Errorf("placemon: negative node count %d", numNodes)
	}
	// A connected graph needs at least n−1 edges. Checking that before
	// graph.New keeps a document that names millions of nodes from
	// allocating for each of them only to fail as disconnected.
	if numNodes > len(edges)+1 {
		return nil, fmt.Errorf("placemon: %w: %d nodes need at least %d edges, have %d",
			graph.ErrDisconnected, numNodes, numNodes-1, len(edges))
	}
	g := graph.New(numNodes)
	for i, e := range edges {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		if err := g.AddWeightedEdge(e.U, e.V, w); err != nil {
			return nil, fmt.Errorf("placemon: edge (%d, %d): %w", e.U, e.V, err)
		}
	}
	return finishNetwork(g, prev)
}

// Load reads a network from the textual edge-list format (see the README
// for the grammar: "edge u v [weight]" / "node id label" / comments).
func Load(r io.Reader) (*Network, error) {
	g, err := graph.Parse(r)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return finishNetwork(g, nil)
}

// BuildTopology constructs one of the paper's calibrated evaluation
// topologies: "Abovenet", "Tiscali", or "AT&T" (Table I).
func BuildTopology(name string) (*Network, error) {
	spec, err := topology.ByName(name)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	topo, err := topology.Build(spec)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	router, err := routing.New(topo.Graph)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return &Network{g: topo.Graph, router: router, clients: topo.CandidateClients}, nil
}

// TopologyNames lists the built-in topology names.
func TopologyNames() []string {
	specs := topology.Specs()
	names := make([]string, len(specs))
	for i, s := range specs {
		names[i] = s.Name
	}
	return names
}

// finishNetwork validates g and routes it lazily. A non-nil prev is the
// network g revises: until the caller detaches the router, each tree is
// carried over from prev's router where prev holds it (routing.NewRevised).
func finishNetwork(g *graph.Graph, prev *Network) (*Network, error) {
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	// Lazy routing: shortest-path trees are built (and memoized) per
	// queried root, so a 100k-node custom network costs memory and time
	// proportional to the roots actually routed (the candidate hosts, on
	// a hop-count network), not O(N²) for all-pairs. Results are
	// identical to eager routing.
	var from *routing.Router
	if prev != nil {
		from = prev.router
	}
	router, err := routing.NewRevised(g, from)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return &Network{g: g, router: router, clients: g.DanglingNodes()}, nil
}

// NumNodes returns the node count.
func (nw *Network) NumNodes() int { return nw.g.NumNodes() }

// NumLinks returns the link count.
func (nw *Network) NumLinks() int { return nw.g.NumEdges() }

// NodeLabel returns the label of node v.
func (nw *Network) NodeLabel(v int) string { return nw.g.Label(v) }

// SuggestedClients returns natural client locations: the access (degree-1)
// nodes for built-in topologies and loaded graphs.
func (nw *Network) SuggestedClients() []int {
	return append([]int(nil), nw.clients...)
}

// Distance returns the routing distance (hops for unweighted graphs)
// between two nodes.
func (nw *Network) Distance(u, v int) float64 { return nw.router.Distance(u, v) }

// PathNodes returns the routed node sequence from client c to host h,
// endpoints included.
func (nw *Network) PathNodes(c, h int) []int { return nw.router.PathNodes(c, h) }

// Service declares one service to place.
type Service struct {
	// Name is a human-readable identifier (optional).
	Name string
	// Clients are the access nodes interested in the service; must be
	// non-empty.
	Clients []int
}

// Algorithm selects the placement strategy.
type Algorithm string

// Placement strategies.
const (
	// AlgorithmGreedy is Algorithm 2: 1/2-approximate for the coverage
	// and distinguishability objectives.
	AlgorithmGreedy Algorithm = "greedy"
	// AlgorithmLazy is Algorithm 2 with CELF lazy evaluation: the same
	// placement as AlgorithmGreedy — identical hosts, value, and order —
	// computed with far fewer objective evaluations. It is the default
	// for submodular objectives (coverage, distinguishability); the
	// non-submodular identifiability objective transparently runs the
	// exact greedy instead.
	AlgorithmLazy Algorithm = "lazy"
	// AlgorithmQoS places each service at its minimum-worst-distance host.
	AlgorithmQoS Algorithm = "qos"
	// AlgorithmRandom places each service uniformly within its candidates.
	AlgorithmRandom Algorithm = "random"
	// AlgorithmBruteForce enumerates all placements (small instances only).
	AlgorithmBruteForce Algorithm = "bruteforce"
	// AlgorithmBranchBound computes the exact optimum with submodular
	// bound pruning; only valid for the coverage and distinguishability
	// objectives.
	AlgorithmBranchBound Algorithm = "branchbound"
)

// ObjectiveKind selects the monitoring measure to maximize.
type ObjectiveKind string

// Monitoring objectives (Section II-B of the paper).
const (
	// ObjectiveCoverage maximizes the number of nodes on some path (MCSP).
	ObjectiveCoverage ObjectiveKind = "coverage"
	// ObjectiveIdentifiability maximizes the number of nodes whose state
	// is uniquely determined under ≤ K failures (MISP).
	ObjectiveIdentifiability ObjectiveKind = "identifiability"
	// ObjectiveDistinguishability maximizes the number of distinguishable
	// failure-set pairs (MDSP) — the paper's best all-round choice.
	ObjectiveDistinguishability ObjectiveKind = "distinguishability"
)

// PlaceConfig parameterizes Network.Place.
type PlaceConfig struct {
	// Alpha is the QoS slack in [0, 1] (eq. 3): 0 = only best-QoS hosts,
	// 1 = any host.
	Alpha float64
	// Objective is the measure to maximize; default distinguishability.
	Objective ObjectiveKind
	// K is the failure budget for identifiability/distinguishability;
	// default 1. A K ≥ 2 objective counts over the m failure classes of
	// the placement's paths (nodes on exactly the same paths), C(m, ≤K)
	// class sets per evaluation; Place refuses a K whose failure sets, or
	// their pairs, overflow int64 at the network's node count.
	K int
	// Algorithm is the strategy. The default is lazy without capacity
	// constraints — identical results to greedy, fewer evaluations — and
	// greedy with them.
	Algorithm Algorithm
	// Seed drives AlgorithmRandom.
	Seed int64
	// BruteForceBudget caps the BF search space (0 = default).
	BruteForceBudget int64
	// InterestNodes, when non-empty, restricts the objective to these
	// nodes (Section VII-B).
	InterestNodes []int
	// Capacity, when non-nil, adds node capacity constraints (Section
	// VII-A) and routes greedy placement through the capacitated variant.
	Capacity *Capacity
	// Progress, when non-nil, receives one callback per completed
	// greedy/lazy round (see RoundProgress). Honored by the greedy and
	// lazy algorithms — including the lazy engine's eager fallback for
	// non-submodular objectives — and ignored by the rest.
	// The callback runs on the engine goroutine between rounds; it only
	// observes the computation and never changes its result.
	Progress func(RoundProgress)
	// Context, when non-nil, bounds the placement run: the greedy and
	// lazy engines observe cancellation once per round (the
	// same cadence as Progress) and return an error wrapping ctx.Err(),
	// so an abandoned or drained job stops within one round instead of
	// running to completion. Nil means no cancellation. A canceled run
	// never returns a partial placement.
	Context context.Context
}

// RoundProgress reports one completed round of a greedy or lazy
// placement run to PlaceConfig.Progress.
type RoundProgress struct {
	// Round is the 0-based round index (one service placed per round).
	Round int
	// Service and Host are the winning (service, host) pair.
	Service int
	Host    int
	// Gain is the marginal objective gain of the winning pair.
	Gain float64
	// Candidates counts the (service, host) pairs examined this round.
	Candidates int
	// Evaluations counts objective evaluations spent this round.
	Evaluations int
	// Duration is the wall-clock time of the round.
	Duration time.Duration
}

// Capacity models the Section VII-A constraints.
type Capacity struct {
	// Demand[s] is the resource consumption of service s; must cover
	// every service.
	Demand []float64
	// HostCapacity maps node → available resource; absent nodes are
	// unlimited.
	HostCapacity map[int]float64
}

// Result describes a computed placement.
type Result struct {
	// Hosts[s] is the node hosting service s (-1 if it could not be
	// placed under capacity constraints).
	Hosts []int
	// Objective is the achieved objective value.
	Objective float64
	// Coverage, Identifiable, Distinguishable are the three k=1 measures
	// of the final placement, regardless of which objective drove it.
	Coverage        int
	Identifiable    int
	Distinguishable int64
	// WorstRelativeDistance is the QoS degradation max_s d̄(C_s, h_s).
	WorstRelativeDistance float64
	// Evaluations counts objective evaluations performed.
	Evaluations int
}

// Place selects hosts for the services under cfg. See PlaceConfig for
// defaults.
func (nw *Network) Place(services []Service, cfg PlaceConfig) (*Result, error) {
	inst, obj, err := nw.prepare(services, cfg)
	if err != nil {
		return nil, err
	}

	algo := cfg.Algorithm
	if algo == "" {
		// Default: the lazy engine, which matches greedy bit-for-bit
		// (placement.Run gives a non-submodular objective the eager sweep
		// anyway), unless capacity constraints need the capacitated greedy.
		algo = AlgorithmLazy
		if cfg.Capacity != nil {
			algo = AlgorithmGreedy
		}
	}
	if cfg.Capacity != nil && algo != AlgorithmGreedy {
		return nil, fmt.Errorf("placemon: capacity constraints are only supported with the greedy algorithm, not %q", algo)
	}

	var progress placement.ProgressFunc
	if cfg.Progress != nil {
		report := cfg.Progress
		progress = func(r placement.Round) {
			report(RoundProgress{
				Round:       r.Index,
				Service:     r.Service,
				Host:        r.Host,
				Gain:        r.Gain,
				Candidates:  r.Candidates,
				Evaluations: r.Evaluations,
				Duration:    r.Duration,
			})
		}
	}

	ctx := cfg.Context
	if ctx == nil {
		ctx = context.Background()
	}

	var res *placement.Result
	switch algo {
	case AlgorithmGreedyLS:
		res, err = placeLS(inst, obj)
	case AlgorithmLazy:
		res, err = placement.Run(ctx, inst, obj, placement.Options{Progress: progress})
	case AlgorithmGreedy:
		if cfg.Capacity != nil {
			res, err = placement.GreedyCapacitated(inst, obj, placement.CapacityConstraints{
				Demand:   cfg.Capacity.Demand,
				Capacity: cfg.Capacity.HostCapacity,
			})
		} else {
			res, err = placement.Run(ctx, inst, obj, placement.Options{Engine: placement.Eager, Progress: progress})
		}
	case AlgorithmQoS:
		res, err = placement.QoS(inst, obj)
	case AlgorithmRandom:
		res, err = placement.Random(inst, obj, rand.New(rand.NewSource(cfg.Seed)))
	case AlgorithmBruteForce:
		res, err = placement.BruteForce(inst, obj, cfg.BruteForceBudget)
	case AlgorithmBranchBound:
		res, err = placement.BranchAndBound(inst, obj, cfg.BruteForceBudget)
	default:
		return nil, fmt.Errorf("placemon: unknown algorithm %q", cfg.Algorithm)
	}
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}

	metrics, merr := inst.Evaluate(res.Placement)
	if merr != nil {
		return nil, fmt.Errorf("placemon: %w", merr)
	}
	return &Result{
		Hosts:                 append([]int(nil), res.Placement.Hosts...),
		Objective:             res.Value,
		Coverage:              metrics.Coverage,
		Identifiable:          metrics.S1,
		Distinguishable:       metrics.D1,
		WorstRelativeDistance: inst.WorstRelativeDistance(res.Placement),
		Evaluations:           res.Evaluations,
	}, nil
}

// CandidateHosts returns the QoS-feasible hosts H_s for a client set at
// slack α (Section III-A), from the QoS profile alone: no measurement
// path is routed.
func (nw *Network) CandidateHosts(clients []int, alpha float64) ([]int, error) {
	hosts, err := placement.CandidateHosts(nw.router, []placement.Service{{Name: "probe", Clients: clients}}, alpha)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return hosts[0], nil
}

// Evaluate computes the three k=1 monitoring measures of an arbitrary
// host assignment (one host per service, in candidate sets at the given
// α).
func (nw *Network) Evaluate(services []Service, hosts []int, alpha float64) (*Result, error) {
	inst, _, err := nw.prepare(services, PlaceConfig{Alpha: alpha})
	if err != nil {
		return nil, err
	}
	pl := placement.Placement{Hosts: append([]int(nil), hosts...)}
	metrics, err := inst.Evaluate(pl)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return &Result{
		Hosts:                 append([]int(nil), hosts...),
		Coverage:              metrics.Coverage,
		Identifiable:          metrics.S1,
		Distinguishable:       metrics.D1,
		WorstRelativeDistance: inst.WorstRelativeDistance(pl),
	}, nil
}

func (nw *Network) prepare(services []Service, cfg PlaceConfig) (*placement.Instance, placement.Objective, error) {
	if len(services) == 0 {
		return nil, nil, fmt.Errorf("placemon: no services")
	}
	svcs := make([]placement.Service, len(services))
	for i, s := range services {
		svcs[i] = placement.Service{Name: s.Name, Clients: s.Clients}
	}
	inst, err := placement.NewInstance(nw.router, svcs, cfg.Alpha)
	if err != nil {
		return nil, nil, fmt.Errorf("placemon: %w", err)
	}
	obj, err := nw.objective(cfg)
	if err != nil {
		return nil, nil, err
	}
	return inst, obj, nil
}

func (nw *Network) objective(cfg PlaceConfig) (placement.Objective, error) {
	k := cfg.K
	if k == 0 {
		k = 1
	}
	kind := cfg.Objective
	if kind == "" {
		kind = ObjectiveDistinguishability
	}
	if kind == ObjectiveIdentifiability || kind == ObjectiveDistinguishability {
		if err := combinat.CheckFailureSetPairs(nw.NumNodes(), k); err != nil {
			return nil, fmt.Errorf("placemon: K = %d: %w", k, err)
		}
	}
	interest := cfg.InterestNodes
	switch kind {
	case ObjectiveCoverage:
		if len(interest) > 0 {
			return placement.NewCoverageOfInterest(nw.NumNodes(), interest), nil
		}
		return placement.NewCoverage(), nil
	case ObjectiveIdentifiability:
		if len(interest) > 0 {
			if k != 1 {
				return nil, fmt.Errorf("placemon: interest-restricted identifiability supports only K = 1")
			}
			return placement.NewIdentifiabilityOfInterest(nw.NumNodes(), interest), nil
		}
		obj, err := placement.NewIdentifiability(k)
		if err != nil {
			return nil, fmt.Errorf("placemon: %w", err)
		}
		return obj, nil
	case ObjectiveDistinguishability:
		if len(interest) > 0 {
			if k != 1 {
				return nil, fmt.Errorf("placemon: interest-restricted distinguishability supports only K = 1")
			}
			return placement.NewDistinguishabilityOfInterest(nw.NumNodes(), interest), nil
		}
		obj, err := placement.NewDistinguishability(k)
		if err != nil {
			return nil, fmt.Errorf("placemon: %w", err)
		}
		return obj, nil
	default:
		return nil, fmt.Errorf("placemon: unknown objective %q", cfg.Objective)
	}
}

// WithLinkNodes returns a copy of the network in which every link is
// replaced by a logical link-node (the paper's Section II-A device for
// monitoring link failures with the node-failure machinery), plus the IDs
// of the new link nodes. Failing a returned ID in Observe simulates the
// corresponding link failure; placements computed on the transformed
// network monitor both node and link health.
func (nw *Network) WithLinkNodes() (*Network, []int, error) {
	split, linkNodes := nw.g.SplitLinks()
	out, err := finishNetwork(split, nil)
	if err != nil {
		return nil, nil, err
	}
	return out, append([]int(nil), linkNodes...), nil
}
