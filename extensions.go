package placemon

import (
	"fmt"

	"repro/internal/monitor"
	"repro/internal/placement"
	"repro/internal/tomography"
)

// This file exposes the library's extensions beyond the paper's core
// algorithms: local-search polishing, the maximum-identifiability measure
// of the paper's reference [5], and probability-aware diagnosis ranking
// (related work [13]).

// AlgorithmGreedyLS runs the greedy of Algorithm 2 followed by an
// interchange local search — never worse than plain greedy, at extra
// evaluation cost.
const AlgorithmGreedyLS Algorithm = "greedy+ls"

// placeLS is dispatched from Place for AlgorithmGreedyLS; kept here so the
// extension surface lives in one file.
func placeLS(inst *placement.Instance, obj placement.Objective) (*placement.Result, error) {
	return placement.GreedyWithLocalSearch(inst, obj, 0)
}

// MaxIdentifiability returns the largest failure budget k for which node
// v's state is always uniquely determined under the measurement paths of
// the given placement (0 when v is not even 1-identifiable; the node
// count when no set of other nodes can mask v). Each budget k it tries
// costs C(m, ≤k) class sets for the m failure classes of the paths, so
// the cost grows exponentially with the answer.
func (nw *Network) MaxIdentifiability(services []Service, hosts []int, alpha float64, v int) (int, error) {
	ps, err := nw.pathsOf(services, hosts, alpha)
	if err != nil {
		return 0, err
	}
	if v < 0 || v >= nw.NumNodes() {
		return 0, fmt.Errorf("placemon: node %d out of range", v)
	}
	return monitor.MaxIdentifiability(ps, v), nil
}

// NetworkMaxIdentifiability returns the largest k such that every covered
// node is k-identifiable — the placement-wide localization guarantee.
func (nw *Network) NetworkMaxIdentifiability(services []Service, hosts []int, alpha float64) (int, error) {
	ps, err := nw.pathsOf(services, hosts, alpha)
	if err != nil {
		return 0, err
	}
	return monitor.NetworkMaxIdentifiability(ps), nil
}

// RankedFailure is a candidate failure set with its posterior probability
// given the observation and a per-node failure prior.
type RankedFailure struct {
	Nodes     []int
	Posterior float64
}

// RankFailures ranks every failure hypothesis of size ≤ k consistent with
// the observation by posterior probability under independent per-node
// failure priors (each in (0, 1)), most likely first.
func (nw *Network) RankFailures(o *Observation, priors []float64, k int) ([]RankedFailure, error) {
	if o == nil || o.paths == nil {
		return nil, fmt.Errorf("placemon: observation was not produced by Observe")
	}
	prior, err := tomography.NewPrior(priors)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	tobs, err := tomography.NewObservation(o.paths, o.Failed)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	ranked, err := tomography.RankCandidates(tobs, prior, k)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	out := make([]RankedFailure, len(ranked))
	for i, r := range ranked {
		out[i] = RankedFailure{Nodes: r.Failure, Posterior: r.Posterior}
	}
	return out, nil
}

// MostLikelyExplanation returns a failure set explaining the observation,
// preferring failure-prone nodes (weighted set cover under the priors).
func (nw *Network) MostLikelyExplanation(o *Observation, priors []float64) ([]int, error) {
	if o == nil || o.paths == nil {
		return nil, fmt.Errorf("placemon: observation was not produced by Observe")
	}
	prior, err := tomography.NewPrior(priors)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	tobs, err := tomography.NewObservation(o.paths, o.Failed)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	expl, err := tomography.MostLikelyExplanation(tobs, prior)
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return expl, nil
}

// pathsOf materializes the measurement paths of a placement.
func (nw *Network) pathsOf(services []Service, hosts []int, alpha float64) (*monitor.PathSet, error) {
	inst, _, err := nw.prepare(services, PlaceConfig{Alpha: alpha})
	if err != nil {
		return nil, err
	}
	ps, err := inst.PathSet(placement.Placement{Hosts: append([]int(nil), hosts...)})
	if err != nil {
		return nil, fmt.Errorf("placemon: %w", err)
	}
	return ps, nil
}
